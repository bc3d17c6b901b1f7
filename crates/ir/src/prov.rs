//! Source-to-cell provenance: the side table that lets machine-level
//! diagnostics name the Val statement each instruction cell implements.
//!
//! The compiler stamps every cell it creates with a *provenance id* — an
//! index into a [`Provenance`] table whose entries carry the statement's
//! byte-range [`Span`], its role in the program ("forall body of block
//! 'B'", "input declaration 'A'", …) and the statement's source text.
//! Transformation passes (gate fusion, generator synthesis, loop and
//! global balancing, FIFO expansion) propagate the ids onto every cell
//! they create, so the mapping *machine cell → IR node → span* stays
//! total on compiled programs.
//!
//! Provenance is deliberately a **side table**: it is excluded from
//! [`crate::Graph::fingerprint`], from the JSON machine-code format and
//! from simulator snapshots, so adding it changes no machine state and
//! no on-disk format.

use std::fmt;

/// A byte range in a Val source file, with the 1-based line/column of its
/// start. Produced by the lexer; carried through parsing and type
/// checking into every IR node via the [`Provenance`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl Span {
    /// A span covering `[start, end)` at the given position.
    pub fn new(start: u32, end: u32, line: u32, col: u32) -> Span {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// The smallest span covering both `self` and `other` (position taken
    /// from whichever starts first).
    pub fn merge(self, other: Span) -> Span {
        let (first, _) = if self.start <= other.start {
            (self, other)
        } else {
            (other, self)
        };
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: first.line,
            col: first.col,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One provenance table entry: a source statement a set of cells
/// implements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceInfo {
    /// The statement's role, e.g. `forall body of block 'B'` or
    /// `input declaration 'A'`.
    pub role: String,
    /// Where the statement lives in the source text.
    pub span: Span,
    /// The statement's source text (single line, trimmed).
    pub snippet: String,
}

/// The compiler's source map: every IR node's `src` field indexes into
/// [`Provenance::entries`]. Entry 0 is always the whole-program fallback,
/// so lookups are total even for cells created outside any statement
/// scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Name of the source file (or `<source>` for in-memory text).
    pub file: String,
    /// The statement table; nodes refer to entries by index.
    pub entries: Vec<SourceInfo>,
}

impl Provenance {
    /// Fresh table for `file`; installs the entry-0 whole-program
    /// fallback.
    pub fn new(file: impl Into<String>) -> Provenance {
        Provenance {
            file: file.into(),
            entries: vec![SourceInfo {
                role: "program".into(),
                span: Span::new(0, 0, 1, 1),
                snippet: String::new(),
            }],
        }
    }

    /// Record a statement; returns its provenance id.
    pub fn add(&mut self, role: impl Into<String>, span: Span, snippet: impl Into<String>) -> u32 {
        let id = self.entries.len() as u32;
        self.entries.push(SourceInfo {
            role: role.into(),
            span,
            snippet: normalize_snippet(&snippet.into()),
        });
        id
    }

    /// The entry a provenance id refers to; out-of-range ids fall back to
    /// entry 0 so rendering never panics on foreign graphs.
    pub fn entry(&self, src: u32) -> &SourceInfo {
        self.entries.get(src as usize).unwrap_or(&self.entries[0])
    }

    /// Whether `src` indexes a real statement entry (not the fallback and
    /// not out of range).
    pub fn is_resolved(&self, src: u32) -> bool {
        src != 0 && (src as usize) < self.entries.len()
    }

    /// Render a provenance id as
    /// `file:line:col: in <role> '<snippet>'`.
    pub fn describe(&self, src: u32) -> String {
        let e = self.entry(src);
        if e.snippet.is_empty() {
            format!("{}:{}: in {}", self.file, e.span, e.role)
        } else {
            format!("{}:{}: in {} '{}'", self.file, e.span, e.role, e.snippet)
        }
    }
}

/// Collapse a (possibly multi-line) statement text to one trimmed line
/// with single spaces, capped to keep diagnostics readable.
fn normalize_snippet(s: &str) -> String {
    let mut out = String::with_capacity(s.len().min(96));
    let mut last_space = true;
    for ch in s.chars() {
        let ch = if ch.is_whitespace() { ' ' } else { ch };
        if ch == ' ' && last_space {
            continue;
        }
        last_space = ch == ' ';
        out.push(ch);
    }
    let trimmed = out.trim();
    if trimmed.len() > 90 {
        let mut cut = 87;
        while !trimmed.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}...", &trimmed[..cut])
    } else {
        trimmed.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_formats_location_and_snippet() {
        let mut p = Provenance::new("fig6.val");
        let id = p.add(
            "forall body of block 'B'",
            Span::new(10, 42, 3, 5),
            "B[i] := (A[i-1] + A[i] + A[i+1]) / 3.",
        );
        assert_eq!(
            p.describe(id),
            "fig6.val:3:5: in forall body of block 'B' 'B[i] := (A[i-1] + A[i] + A[i+1]) / 3.'"
        );
        assert!(p.is_resolved(id));
        assert!(!p.is_resolved(0));
    }

    #[test]
    fn out_of_range_falls_back_to_program_entry() {
        let p = Provenance::new("x.val");
        assert_eq!(p.describe(99), "x.val:1:1: in program");
        assert!(!p.is_resolved(99));
    }

    #[test]
    fn snippets_are_normalized_and_capped() {
        let mut p = Provenance::new("x.val");
        let id = p.add("def", Span::default(), "a :=\n    b +\n    c");
        assert_eq!(p.entry(id).snippet, "a := b + c");
        let long = "x".repeat(200);
        let id2 = p.add("def", Span::default(), &long);
        assert!(p.entry(id2).snippet.len() <= 90);
        assert!(p.entry(id2).snippet.ends_with("..."));
    }

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(5, 10, 2, 1);
        let b = Span::new(8, 20, 2, 4);
        let m = a.merge(b);
        assert_eq!((m.start, m.end, m.line, m.col), (5, 20, 2, 1));
        assert_eq!(b.merge(a), m);
    }
}
