//! Expression-to-instruction-graph compilation (Theorem 1).
//!
//! A block's body is compiled against a *stream scope*: every value is a
//! stream carrying one packet per element of the current **domain** (the
//! set of indices flowing through this point of the program). The root
//! domain is the block's manifest index range; each conditional arm
//! narrows the domain — statically (precomputed boolean control streams,
//! as in the paper's Figs. 4–6) when the condition depends only on the
//! index variable and parameters, or dynamically (gates driven by the
//! computed condition stream, Fig. 5) otherwise.
//!
//! Array accesses `A[i+c]` become gated taps off the producer's stream:
//! a `TGate` driven by a window-selection control stream discards the
//! unused elements (so they cannot jam the pipe), and the tap arc carries
//! a stream-phase weight of `2·c` instruction times that the balancer
//! turns into the skew FIFOs of Fig. 4.

use crate::error::CompileError;
use std::collections::HashMap;
use std::rc::Rc;
use valpipe_ir::opcode::{Opcode, GATE_DATA, MERGE_CTL, MERGE_FALSE, MERGE_TRUE};
use valpipe_ir::value::Value;
use valpipe_ir::{CtlStream, Graph, In, NodeId};
use valpipe_val::ast::{BinOp, Expr, UnOp};
use valpipe_val::classify::index_offset;
use valpipe_val::fold::{eval_static, is_static_in, Bindings};

/// A named array stream available to consumers: the producing cell plus
/// its manifest index range (streams are always contiguous in `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provider {
    /// The cell whose output carries the array's elements in index order.
    pub node: NodeId,
    /// Least index.
    pub lo: i64,
    /// Greatest index.
    pub hi: i64,
}

impl Provider {
    /// Number of elements per wave.
    pub fn len(&self) -> u32 {
        (self.hi - self.lo + 1) as u32
    }

    /// Streams are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Provenance-table ids (`valpipe_ir::prov`) for one block's statements,
/// used to stamp every cell the block compiles to with the statement it
/// came from. Id 0 is the whole-program fallback.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockProv {
    /// The block header (name, type, range specification).
    pub header: u32,
    /// Definition-part statements (or loop inits), keyed by name.
    pub defs: HashMap<String, u32>,
    /// The accumulation expression or loop body.
    pub body: u32,
}

/// Program-wide compilation state.
pub struct Compiler {
    /// The machine program under construction.
    pub g: Graph,
    /// Compile-time parameter values.
    pub params: Bindings,
    /// Array streams by name (inputs and already-compiled blocks).
    pub providers: HashMap<String, Provider>,
    /// Anchor weights for the balancer: each input source of an array over
    /// `[lo, hi]` is pinned at `−2·lo` relative to the machine start.
    pub anchors: Vec<(NodeId, i64)>,
    label_seq: u32,
    /// Streams registered through [`Compiler::provide`] since the last
    /// [`Compiler::take_provided`], in registration order.
    provided: Vec<(String, Provider)>,
}

impl Compiler {
    /// Fresh compiler with the given parameters.
    pub fn new(params: Bindings) -> Self {
        Compiler {
            g: Graph::new(),
            params,
            providers: HashMap::new(),
            anchors: Vec::new(),
            label_seq: 0,
            provided: Vec::new(),
        }
    }

    /// Register a block's array stream under `name`, and log it so the
    /// block's lowering can report what it registered.
    pub fn provide(&mut self, name: impl Into<String>, p: Provider) {
        let name = name.into();
        self.providers.insert(name.clone(), p);
        self.provided.push((name, p));
    }

    /// The streams registered through [`Compiler::provide`] since the
    /// last call, in registration order.
    pub fn take_provided(&mut self) -> Vec<(String, Provider)> {
        std::mem::take(&mut self.provided)
    }

    /// Unique label with a readable prefix.
    pub fn label(&mut self, prefix: &str) -> String {
        self.label_seq += 1;
        format!("{prefix}.{}", self.label_seq)
    }

    /// Current value of the unique-label counter. Labels embed it, so an
    /// incremental compiler replaying a cached block region renumbers the
    /// region's labels from the counter's current value and advances the
    /// counter by as many numbers as the cold lowering drew.
    pub fn label_seq(&self) -> u32 {
        self.label_seq
    }

    /// Restore the unique-label counter (incremental replay only).
    pub(crate) fn set_label_seq(&mut self, v: u32) {
        self.label_seq = v;
    }

    /// A fresh control-stream generator cell.
    pub fn ctlgen(&mut self, stream: CtlStream, label_prefix: &str) -> NodeId {
        let l = self.label(label_prefix);
        self.g.add_node(Opcode::CtlGen(stream), l)
    }

    /// Turn a literal into a paced stream of `wave_len` copies per wave
    /// (a gate whose data operand is the literal, clocked by an all-true
    /// control stream).
    pub fn materialize_lit(&mut self, v: Value, wave_len: u32, label_prefix: &str) -> NodeId {
        let ctl = self.ctlgen(CtlStream::constant(true, wave_len), label_prefix);
        let l = self.label(label_prefix);
        self.g.cell(Opcode::TGate, l, &[ctl.into(), In::Lit(v)])
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PullKey {
    /// A let-bound or definition-part name.
    Local(String),
    /// An array tap `A[i + offset]`.
    Tap(String, i64),
    /// The index variable itself as a value stream.
    Index,
}

enum GateCtl {
    /// Precomputed boolean pattern over the parent domain.
    Static(CtlStream),
    /// Runtime condition stream; `true` keeps the then-polarity elements.
    Dynamic { ctl: NodeId, keep_true: bool },
}

struct Frame {
    locals: HashMap<String, In>,
    /// `None` for the root frame and pure `let` scoping frames.
    gate: Option<GateCtl>,
    /// The static index list at this level, if every enclosing gate is
    /// static. `None` once any dynamic gate encloses this frame.
    sel: Option<Rc<Vec<i64>>>,
    cache: HashMap<PullKey, In>,
}

/// Per-block compilation: owns the scope stack and the index variable.
pub struct BlockBuilder<'c> {
    /// Shared program-wide state.
    pub c: &'c mut Compiler,
    block: String,
    index_var: String,
    root_lo: i64,
    root_hi: i64,
    frames: Vec<Frame>,
    /// Taps resolved specially (the for-iter accumulator feedback): the
    /// stream already carries one packet per root-domain element.
    special_taps: HashMap<(String, i64), NodeId>,
}

impl<'c> BlockBuilder<'c> {
    /// Builder for a block over the contiguous index range `[lo, hi]`.
    pub fn new(
        c: &'c mut Compiler,
        block: impl Into<String>,
        index_var: impl Into<String>,
        lo: i64,
        hi: i64,
    ) -> Self {
        assert!(hi >= lo, "empty block range");
        let sel: Rc<Vec<i64>> = Rc::new((lo..=hi).collect());
        BlockBuilder {
            c,
            block: block.into(),
            index_var: index_var.into(),
            root_lo: lo,
            root_hi: hi,
            frames: vec![Frame {
                locals: HashMap::new(),
                gate: None,
                sel: Some(sel),
                cache: HashMap::new(),
            }],
            special_taps: HashMap::new(),
        }
    }

    /// Number of elements in the root domain.
    pub fn root_len(&self) -> u32 {
        (self.root_hi - self.root_lo + 1) as u32
    }

    /// Register a special feedback tap (for-iter accumulator): pulls of
    /// `name[i + offset]` resolve to `node`, which must carry one packet
    /// per root-domain element.
    pub fn set_special_tap(&mut self, name: impl Into<String>, offset: i64, node: NodeId) {
        self.special_taps.insert((name.into(), offset), node);
    }

    /// Bind a definition-part name in the current scope.
    pub fn define_local(&mut self, name: impl Into<String>, value: In) {
        self.frames
            .last_mut()
            .expect("scope stack never empty")
            .locals
            .insert(name.into(), value);
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError::Internal(format!(
            "block '{}': {}",
            self.block,
            msg.into()
        )))
    }

    fn top_sel(&self) -> Option<Rc<Vec<i64>>> {
        self.frames.last().and_then(|f| f.sel.clone())
    }

    fn label(&mut self, p: &str) -> String {
        let prefix = format!("{}.{p}", self.block);
        self.c.label(&prefix)
    }

    // ---- scope pulls ------------------------------------------------------

    fn pull(&mut self, key: PullKey) -> Result<In, CompileError> {
        self.pull_at(self.frames.len() - 1, key)
    }

    fn pull_at(&mut self, level: usize, key: PullKey) -> Result<In, CompileError> {
        if let Some(v) = self.frames[level].cache.get(&key) {
            return Ok(*v);
        }
        if let PullKey::Local(name) = &key {
            if let Some(v) = self.frames[level].locals.get(name) {
                return Ok(*v);
            }
        }
        // Ordinary array taps short-circuit to the deepest fully static
        // level: one gate selects exactly the elements this scope needs,
        // instead of cascading a gate per conditional.
        let shortcut_tap = matches!(&key, PullKey::Tap(name, off)
            if !self.special_taps.contains_key(&(name.clone(), *off)))
            && self.frames[level].sel.is_some();
        let value = if shortcut_tap {
            let PullKey::Tap(name, off) = &key else {
                unreachable!()
            };
            let sel = self.frames[level].sel.clone().expect("static level");
            self.resolve_tap(&name.clone(), *off, &sel)?
        } else if level == 0 {
            self.resolve_root(&key)?
        } else {
            let below = self.pull_at(level - 1, key.clone())?;
            self.apply_gate(level, below)?
        };
        self.frames[level].cache.insert(key, value);
        Ok(value)
    }

    fn resolve_root(&mut self, key: &PullKey) -> Result<In, CompileError> {
        match key {
            PullKey::Index => {
                let l = self.label("idx");
                Ok(In::Node(self.c.g.add_node(
                    Opcode::IdxGen {
                        lo: self.root_lo,
                        hi: self.root_hi,
                    },
                    l,
                )))
            }
            PullKey::Tap(name, off) => {
                if let Some(&n) = self.special_taps.get(&(name.clone(), *off)) {
                    return Ok(In::Node(n));
                }
                let sel = self.frames[0].sel.clone().expect("root is static");
                self.resolve_tap(&name.clone(), *off, &sel)
            }
            PullKey::Local(name) => self.err(format!("unbound local '{name}'")),
        }
    }

    /// Build (or reuse) a window-gated tap off a provider stream for
    /// `name[i + off]`, selecting exactly the indices in `sel`.
    fn resolve_tap(&mut self, name: &str, off: i64, sel: &[i64]) -> Result<In, CompileError> {
        let Some(p) = self.c.providers.get(name).copied() else {
            return self.err(format!("no provider for array '{name}'"));
        };
        // Which provider positions are consumed.
        let mut bits = vec![false; p.len() as usize];
        for &i in sel {
            let pos = i + off - p.lo;
            if pos < 0 || pos >= p.len() as i64 {
                return self.err(format!(
                    "tap {name}[i{off:+}] out of range at i={i} (analysis should have caught this)"
                ));
            }
            bits[pos as usize] = true;
        }
        let phase = i32::try_from(2 * off).expect("offset fits i32");
        if bits.iter().all(|&b| b) && off == 0 {
            // Full selection at zero offset: the provider stream itself.
            return Ok(In::Node(p.node));
        }
        let node = if bits.iter().all(|&b| b) {
            // Full selection at non-zero offset: an identity cell whose
            // input arc carries the phase lead.
            let l = self.label(&format!("tap_{name}{off:+}"));
            let id = self.c.g.add_node(Opcode::Id, l);
            self.c.g.connect_phase(p.node, id, 0, phase);
            id
        } else {
            let stream = CtlStream::from_runs(bits.iter().map(|&b| (b, 1)));
            let ctl = self.c.ctlgen(stream, &format!("{}.w_{name}", self.block));
            let l = self.label(&format!("tap_{name}{off:+}"));
            let gate = self.c.g.add_node(Opcode::TGate, l);
            self.c.g.connect(ctl, gate, 0);
            self.c.g.connect_phase(p.node, gate, GATE_DATA, phase);
            gate
        };
        Ok(In::Node(node))
    }

    fn apply_gate(&mut self, level: usize, below: In) -> Result<In, CompileError> {
        let node = match below {
            // Literals are operand fields — always available, never gated.
            In::Lit(_) => return Ok(below),
            In::Node(n) => n,
        };
        match &self.frames[level].gate {
            None => Ok(In::Node(node)),
            Some(GateCtl::Static(stream)) => {
                let stream = stream.clone();
                let ctl = self.c.ctlgen(stream, &format!("{}.sel", self.block));
                let l = self.label("gate");
                Ok(In::Node(self.c.g.cell(
                    Opcode::TGate,
                    l,
                    &[ctl.into(), node.into()],
                )))
            }
            Some(GateCtl::Dynamic { ctl, keep_true }) => {
                let (ctl, keep) = (*ctl, *keep_true);
                let op = if keep { Opcode::TGate } else { Opcode::FGate };
                let l = self.label("dgate");
                Ok(In::Node(self.c.g.cell(op, l, &[ctl.into(), node.into()])))
            }
        }
    }

    fn push_let_frame(&mut self) {
        let sel = self.top_sel();
        self.frames.push(Frame {
            locals: HashMap::new(),
            gate: None,
            sel,
            cache: HashMap::new(),
        });
    }

    fn push_static_frame(&mut self, bits: &[bool], keep_true: bool) {
        let parent = self.top_sel().expect("static frame requires static parent");
        let selected: Vec<i64> = parent
            .iter()
            .zip(bits)
            .filter(|&(_, &b)| b == keep_true)
            .map(|(&i, _)| i)
            .collect();
        let stream = CtlStream::from_runs(bits.iter().map(|&b| (b == keep_true, 1)));
        self.frames.push(Frame {
            locals: HashMap::new(),
            gate: Some(GateCtl::Static(stream)),
            sel: Some(Rc::new(selected)),
            cache: HashMap::new(),
        });
    }

    fn push_dynamic_frame(&mut self, ctl: NodeId, keep_true: bool) {
        self.frames.push(Frame {
            locals: HashMap::new(),
            gate: Some(GateCtl::Dynamic { ctl, keep_true }),
            sel: None,
            cache: HashMap::new(),
        });
    }

    fn pop_frame(&mut self) {
        self.frames.pop();
        assert!(!self.frames.is_empty(), "popped the root frame");
    }

    // ---- expression compilation (Theorem 1) -------------------------------

    /// Compile a primitive expression into a stream over the current
    /// domain. Returns a literal when the expression is constant.
    pub fn compile(&mut self, e: &Expr) -> Result<In, CompileError> {
        match e {
            Expr::IntLit(v) => Ok(In::Lit(Value::Int(*v))),
            Expr::RealLit(v) => Ok(In::Lit(Value::Real(*v))),
            Expr::BoolLit(v) => Ok(In::Lit(Value::Bool(*v))),
            Expr::Var(name) => {
                if name == &self.index_var {
                    return self.pull(PullKey::Index);
                }
                if let Some(v) = self.c.params.get(name) {
                    return Ok(In::Lit(*v));
                }
                self.pull(PullKey::Local(name.clone()))
            }
            Expr::Index(name, idx) => {
                let Some(off) = index_offset(idx, &self.index_var, &self.c.params) else {
                    return self.err(format!("non-canonical subscript of '{name}'"));
                };
                self.pull(PullKey::Tap(name.clone(), off))
            }
            Expr::Bin(op, a, b) => {
                let a = self.compile(a)?;
                let b = self.compile(b)?;
                self.emit_bin(*op, a, b)
            }
            Expr::Un(op, a) => {
                let a = self.compile(a)?;
                self.emit_un(*op, a)
            }
            Expr::Let(defs, body) => {
                self.push_let_frame();
                for d in defs {
                    let v = self.compile(&d.value)?;
                    self.define_local(&d.name, v);
                }
                let r = self.compile(body);
                self.pop_frame();
                r
            }
            Expr::If(c, t, f) => self.compile_if(c, t, f),
            Expr::Index2(name, ..) => self.err(format!(
                "unflattened two-dimensional access to '{name}' reached the compiler"
            )),
            Expr::Iter(_) | Expr::Append(..) | Expr::ArrayInit(..) => {
                self.err("array constructor inside a primitive expression")
            }
        }
    }

    fn emit_bin(&mut self, op: BinOp, a: In, b: In) -> Result<In, CompileError> {
        if let (In::Lit(x), In::Lit(y)) = (a, b) {
            return valpipe_ir::apply_bin(op, x, y)
                .map(In::Lit)
                .map_err(|e| CompileError::Internal(format!("constant fold: {e}")));
        }
        let l = self.label(&op.mnemonic().to_lowercase());
        Ok(In::Node(self.c.g.cell(Opcode::Bin(op), l, &[a, b])))
    }

    fn emit_un(&mut self, op: UnOp, a: In) -> Result<In, CompileError> {
        if let In::Lit(x) = a {
            return valpipe_ir::apply_un(op, x)
                .map(In::Lit)
                .map_err(|e| CompileError::Internal(format!("constant fold: {e}")));
        }
        let l = self.label(&op.mnemonic().to_lowercase());
        Ok(In::Node(self.c.g.cell(Opcode::Un(op), l, &[a])))
    }

    /// Conditional mapping (paper Fig. 5 / Fig. 6): static conditions gate
    /// by precomputed control streams, dynamic conditions by the computed
    /// condition stream; a MERGE cell reassembles the index order.
    fn compile_if(&mut self, cond: &Expr, t: &Expr, f: &Expr) -> Result<In, CompileError> {
        let params = self.c.params.clone();
        let iv = self.index_var.clone();
        let allowed = |n: &str| n == iv || params.contains_key(n);
        if let Some(parent_sel) = self.top_sel() {
            if is_static_in(cond, &allowed) {
                // Evaluate the condition for every index in the domain.
                let mut env = params.clone();
                let bits: Option<Vec<bool>> = parent_sel
                    .iter()
                    .map(|&i| {
                        env.insert(iv.clone(), Value::Int(i));
                        eval_static(cond, &env).and_then(Value::as_bool)
                    })
                    .collect();
                if let Some(bits) = bits {
                    return self.compile_static_if(&bits, t, f);
                }
                // Static-looking condition failed to evaluate (e.g. a
                // division fault at some index): fall through to the
                // dynamic mapping, which only evaluates where selected.
            }
        }
        // Dynamic mapping (Fig. 5).
        let c = self.compile(cond)?;
        let ctl = match c {
            In::Lit(Value::Bool(true)) => return self.compile(t),
            In::Lit(Value::Bool(false)) => return self.compile(f),
            In::Lit(v) => return self.err(format!("condition is a non-boolean literal {v}")),
            In::Node(n) => n,
        };
        self.push_dynamic_frame(ctl, true);
        let rt = self.compile(t);
        self.pop_frame();
        let rt = rt?;
        self.push_dynamic_frame(ctl, false);
        let rf = self.compile(f);
        self.pop_frame();
        let rf = rf?;
        let l = self.label("merge");
        let m = self.c.g.add_node(Opcode::Merge, l);
        self.c.g.connect(ctl, m, MERGE_CTL);
        self.c.g.bind(rt, m, MERGE_TRUE);
        self.c.g.bind(rf, m, MERGE_FALSE);
        Ok(In::Node(m))
    }

    fn compile_static_if(&mut self, bits: &[bool], t: &Expr, f: &Expr) -> Result<In, CompileError> {
        if bits.iter().all(|&b| b) {
            return self.compile(t);
        }
        if bits.iter().all(|&b| !b) {
            return self.compile(f);
        }
        self.push_static_frame(bits, true);
        let rt = self.compile(t);
        self.pop_frame();
        let rt = rt?;
        self.push_static_frame(bits, false);
        let rf = self.compile(f);
        self.pop_frame();
        let rf = rf?;
        let stream = CtlStream::from_runs(bits.iter().map(|&b| (b, 1)));
        let ctl = self.c.ctlgen(stream, &format!("{}.mctl", self.block));
        let l = self.label("merge");
        let m = self.c.g.add_node(Opcode::Merge, l);
        self.c.g.connect(ctl, m, MERGE_CTL);
        self.c.g.bind(rt, m, MERGE_TRUE);
        self.c.g.bind(rf, m, MERGE_FALSE);
        Ok(In::Node(m))
    }

    /// Ensure the result is a real stream cell (materializing constant
    /// results as paced literal streams).
    pub fn materialize(&mut self, v: In) -> NodeId {
        match v {
            In::Node(n) => n,
            In::Lit(lit) => {
                let len = self.root_len();
                let prefix = format!("{}.const", self.block);
                self.c.materialize_lit(lit, len, &prefix)
            }
        }
    }
}
