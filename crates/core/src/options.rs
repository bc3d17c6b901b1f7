//! Compilation options.
//!
//! [`CompileOptions::default()`] is the paper's construction: the auto
//! recurrence scheme, optimal buffering (§8: the LP dual of a min-cost
//! flow) and gate fusion, which always runs. The remaining settings are
//! the experiments' ablations: a forced recurrence scheme, ASAP or no
//! balancing, the array-memory boundary and generator synthesis.

use valpipe_balance::BalanceMode;

/// How `for-iter` recurrences are mapped (paper §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForIterScheme {
    /// Companion-pipeline scheme (Fig. 8) when the recurrence is linear in
    /// `X[i-1]`; Todd's scheme otherwise.
    #[default]
    Auto,
    /// Always Todd's scheme (Fig. 7): simple feedback, one token in the
    /// cycle, rate limited to `1 / cycle length`.
    Todd,
    /// Always the companion scheme (Fig. 8): dependence distance doubled
    /// via the companion function `G`, two tokens in the cycle, maximum
    /// rate. Fails on recurrences without a derivable companion.
    Companion,
}

/// Options controlling compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Recurrence mapping scheme.
    pub scheme: ForIterScheme,
    /// Global balancing algorithm (paper §8). `BalanceMode::None` disables
    /// buffer insertion entirely — useful for the imbalance ablations.
    pub balance: BalanceMode,
    /// Route program inputs through array-memory read cells and program
    /// outputs through array-memory write cells, modeling long-lived state
    /// (e.g. between time steps of a physics code, paper §2). Enables the
    /// array-memory traffic accounting experiments.
    pub am_boundary: bool,
    /// Lower every control/index generator into circuits of ordinary
    /// instruction cells (Todd's construction) before balancing, so the
    /// final program uses no primitive generator nodes.
    pub synthesize_generators: bool,
}

impl CompileOptions {
    /// The paper's construction; the same as [`CompileOptions::default`].
    pub fn paper() -> Self {
        Self::default()
    }
}
