//! Resource budgets for compiling untrusted source.
//!
//! The compile pipeline is exposed to hostile input in two places: the
//! `valpipe` CLI (a user-supplied `.val` file) and the multi-tenant
//! service (arbitrary source over the wire). Without budgets, a small
//! program can demand an enormous compile: deep nesting overflows the
//! parser stack, a huge anchor like `[0: x]` at index `-10_000_000`
//! expands FIFOs into gigabytes, and pathological balancing problems burn
//! unbounded wall-clock. [`CompileLimits`] bounds each axis; every breach
//! surfaces as a typed, non-panicking [`LimitBreach`] inside
//! [`crate::CompileError::Limit`].

use std::fmt;
use std::time::Duration;

/// Resource budgets enforced by the [`crate::QueryEngine`] while compiling.
///
/// A limit of `usize::MAX` / `u64::MAX` (see [`CompileLimits::unbounded`])
/// disables that check. [`CompileLimits::default`] is generous — far above
/// anything the paper's examples or the property suites produce — while
/// [`CompileLimits::service`] is the tighter profile a multi-tenant worker
/// applies to wire jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileLimits {
    /// Maximum accepted source length in bytes, checked before lexing.
    pub max_source_bytes: usize,
    /// Maximum expression/type nesting depth accepted by the parser.
    pub max_nesting_depth: usize,
    /// Maximum cell count in any compile artifact, checked after each pass
    /// and again after FIFO expansion (where anchors multiply cells).
    pub max_cells: usize,
    /// Maximum arc count in any compile artifact.
    pub max_arcs: usize,
    /// Maximum FIFO depth assigned to a single arc by balancing.
    pub max_fifo_depth: usize,
    /// Wall-clock budget for the whole compile, checked between passes.
    pub max_compile_millis: u64,
}

impl Default for CompileLimits {
    fn default() -> Self {
        CompileLimits {
            max_source_bytes: 1 << 20, // 1 MiB of source
            max_nesting_depth: 64,
            max_cells: 250_000,
            max_arcs: 500_000,
            max_fifo_depth: 100_000,
            max_compile_millis: 30_000,
        }
    }
}

impl CompileLimits {
    /// No limits at all: every check passes. This is what trusted callers
    /// (tests, benches, the library API that existed before limits) get.
    pub fn unbounded() -> Self {
        CompileLimits {
            max_source_bytes: usize::MAX,
            max_nesting_depth: usize::MAX,
            max_cells: usize::MAX,
            max_arcs: usize::MAX,
            max_fifo_depth: usize::MAX,
            max_compile_millis: u64::MAX,
        }
    }

    /// The profile a multi-tenant service worker applies to untrusted wire
    /// jobs: small source, shallow nesting, modest graphs, short compiles.
    pub fn service() -> Self {
        CompileLimits {
            max_source_bytes: 256 << 10, // 256 KiB
            max_nesting_depth: 48,
            max_cells: 50_000,
            max_arcs: 100_000,
            max_fifo_depth: 10_000,
            max_compile_millis: 10_000,
        }
    }

    /// Wall budget as a [`Duration`].
    pub fn compile_budget(&self) -> Duration {
        Duration::from_millis(self.max_compile_millis)
    }

    /// Parse a `key=value[,key=value…]` spec, overriding fields of `self`.
    /// Keys: `source-bytes`, `depth`, `cells`, `arcs`, `fifo`, `millis`;
    /// a value of `none` lifts that limit. Used by the CLI `--limits` flag.
    pub fn apply_spec(mut self, spec: &str) -> Result<Self, String> {
        for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("bad limit '{part}': expected key=value"))?;
            let parse = |v: &str| -> Result<usize, String> {
                if v == "none" {
                    Ok(usize::MAX)
                } else {
                    v.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("bad limit value '{v}' for '{key}'"))
                }
            };
            match key.trim() {
                "source-bytes" => self.max_source_bytes = parse(val)?,
                "depth" => self.max_nesting_depth = parse(val)?,
                "cells" => self.max_cells = parse(val)?,
                "arcs" => self.max_arcs = parse(val)?,
                "fifo" => self.max_fifo_depth = parse(val)?,
                "millis" => self.max_compile_millis = parse(val)? as u64,
                other => return Err(format!("unknown limit key '{other}'")),
            }
        }
        Ok(self)
    }
}

/// One exceeded budget: which axis, what the program demanded, what the
/// limit was. `pass` names the pipeline stage that tripped the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LimitBreach {
    /// Source text longer than `max_source_bytes`.
    SourceBytes {
        /// Observed source length.
        got: usize,
        /// Configured limit.
        limit: usize,
    },
    /// Parser nesting depth exceeded `max_nesting_depth`.
    NestingDepth {
        /// Configured limit.
        limit: usize,
    },
    /// An artifact grew past `max_cells`.
    Cells {
        /// Pass after which the check tripped.
        pass: &'static str,
        /// Observed cell count.
        got: usize,
        /// Configured limit.
        limit: usize,
    },
    /// An artifact grew past `max_arcs`.
    Arcs {
        /// Pass after which the check tripped.
        pass: &'static str,
        /// Observed arc count.
        got: usize,
        /// Configured limit.
        limit: usize,
    },
    /// Balancing assigned a FIFO deeper than `max_fifo_depth`.
    FifoDepth {
        /// Deepest FIFO requested.
        got: usize,
        /// Configured limit.
        limit: usize,
    },
    /// The compile ran past its wall-clock budget.
    CompileWall {
        /// Elapsed milliseconds when the check tripped.
        elapsed_ms: u64,
        /// Configured budget in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for LimitBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitBreach::SourceBytes { got, limit } => {
                write!(f, "source is {got} bytes, limit is {limit}")
            }
            LimitBreach::NestingDepth { limit } => {
                write!(f, "nesting deeper than {limit} levels")
            }
            LimitBreach::Cells { pass, got, limit } => {
                write!(f, "{got} cells after pass '{pass}', limit is {limit}")
            }
            LimitBreach::Arcs { pass, got, limit } => {
                write!(f, "{got} arcs after pass '{pass}', limit is {limit}")
            }
            LimitBreach::FifoDepth { got, limit } => {
                write!(
                    f,
                    "balancing requires a FIFO of depth {got}, limit is {limit}"
                )
            }
            LimitBreach::CompileWall {
                elapsed_ms,
                limit_ms,
            } => {
                write!(f, "compile ran {elapsed_ms} ms, budget is {limit_ms} ms")
            }
        }
    }
}

impl std::error::Error for LimitBreach {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_overrides_fields() {
        let l = CompileLimits::default()
            .apply_spec("cells=10, fifo=7,millis=250")
            .unwrap();
        assert_eq!(l.max_cells, 10);
        assert_eq!(l.max_fifo_depth, 7);
        assert_eq!(l.max_compile_millis, 250);
        assert_eq!(
            l.max_source_bytes,
            CompileLimits::default().max_source_bytes
        );
    }

    #[test]
    fn spec_none_lifts_limit() {
        let l = CompileLimits::service().apply_spec("depth=none").unwrap();
        assert_eq!(l.max_nesting_depth, usize::MAX);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(CompileLimits::default().apply_spec("bogus=1").is_err());
        assert!(CompileLimits::default().apply_spec("cells").is_err());
        assert!(CompileLimits::default().apply_spec("cells=x").is_err());
    }

    #[test]
    fn breach_display_is_structured() {
        let b = LimitBreach::Cells {
            pass: "fuse",
            got: 12,
            limit: 10,
        };
        assert_eq!(b.to_string(), "12 cells after pass 'fuse', limit is 10");
    }
}
