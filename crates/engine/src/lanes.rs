//! Slab (batched-lane) evaluation of straight-line postfix programs.
//!
//! The compiled engine's batch tier materializes an innermost loop's domain
//! into blocks of up to [`LANES`] `i64` values and evaluates each postfix
//! program once *per block* instead of once per point: every operation runs
//! as a tight fixed-width loop over all lanes (auto-vectorizable — no
//! per-lane branches on the arithmetic paths; data-dependent choices use
//! `select`-style conditional moves), producing one result slab plus a
//! *fallible mask* of lanes whose scalar evaluation would have errored or
//! panicked.
//!
//! # Lane-infallibility contract
//!
//! Slab evaluation must be panic-free for **every** lane value — including
//! tail lanes past the domain's end and lanes already rejected by an earlier
//! check, whose slabs carry garbage. Three op families need care:
//!
//! * **Division** (`Div`/`FloorDiv`/`Rem`, `DivCeil`/`RoundUp`): a lane
//!   whose divisor is zero — or whose operands hit the `i64::MIN / -1`
//!   overflow of `div_euclid` — is marked fallible and divided by a
//!   selected safe divisor instead. The scalar rerun of that lane then
//!   reproduces the exact scalar behavior (an [`EvalError::DivisionByZero`]
//!   or the division-overflow panic).
//! * **`DivCeil`/`RoundUp` intermediates**: the scalar evaluator computes
//!   `a + b - 1` (and `* b` for `RoundUp`) with *raw* arithmetic, which
//!   panics under debug overflow checks and wraps in release. A lane whose
//!   intermediate overflows is marked fallible, so the scalar rerun
//!   reproduces whichever behavior the current build has — the slab never
//!   has to choose.
//! * **Wrapping ops** (`Add`/`Sub`/`Mul`/`Neg`/`Abs`): the scalar evaluator
//!   wraps explicitly in both build profiles, so the slab wraps identically
//!   and is never fallible.
//!
//! Programs containing control flow (`&&`/`||`/ternary compile to jumps)
//! are not slab-translatable — lanes would diverge — and stay on the
//! per-lane scalar path; [`LaneProg::compile`] returns `None` for them.
//!
//! [`EvalError::DivisionByZero`]: beast_core::error::EvalError::DivisionByZero

use beast_core::expr::Builtin;
use beast_core::ir::IntBinOp;

use crate::postfix::{PfOp, Postfix};

/// Lane width of the slab evaluator and the batch tier's block size, fixed
/// at the survivor-bitmask width.
pub const LANES: usize = 64;

/// One slab of lane values.
pub type Lane = [i64; LANES];

/// One op of a lane program: a [`PfOp`] with slot reads resolved against
/// the batch plan's lane rows at translation time and lane-invariant
/// subprograms hoisted into the scalar prologue.
#[derive(Debug, Clone, Copy)]
enum LOp {
    /// Broadcast a literal.
    Const(i64),
    /// Broadcast a loop-invariant slot value.
    Slot(u32),
    /// Broadcast a hoisted prologue temp (see [`LaneProg::compile`]).
    Tmp(u32),
    /// Read a lane row (a slot written per-lane inside the batched body).
    Row(u32),
    /// Lane-wise strict binary op.
    Bin(IntBinOp),
    /// Lane-wise negate.
    Neg,
    /// Lane-wise logical not (0/1).
    Not,
    /// Lane-wise absolute value.
    Abs,
    /// Lane-wise two-argument builtin.
    Call2(Builtin),
    /// Lane-wise `!= 0` normalization.
    NormalizeBool,
}

/// A straight-line postfix program translated to slab form: a scalar
/// prologue of hoisted lane-invariant subprograms (evaluated once per
/// block) plus the lane-varying op stream.
#[derive(Debug, Clone)]
pub struct LaneProg {
    /// Hoisted lane-invariant subprograms; `pre[t]` computes the value
    /// broadcast by `LOp::Tmp(t)`.
    pre: Vec<Postfix>,
    ops: Vec<LOp>,
    max_stack: usize,
}

/// Reusable scratch for [`LaneProg::eval`]: the slab operand stack, a
/// scalar operand stack for the hoisted prologue, and the broadcast temp
/// values the prologue produced.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    stack: Vec<Lane>,
    sstack: Vec<i64>,
    tmps: Vec<i64>,
}

impl LaneProg {
    /// Translate `pf`, resolving slot reads against `rows` (the slots that
    /// vary per lane inside the batched body; row index = position in the
    /// slice). Returns `None` when the program contains control flow
    /// (jumps or pops from `&&`/`||`/ternary lowering): lanes would
    /// diverge, so such programs stay on the scalar path.
    ///
    /// Maximal lane-invariant subprograms — subtrees reading no lane row —
    /// are hoisted into the scalar prologue and broadcast through
    /// `LOp::Tmp`, so their cost is paid once per block rather than once
    /// per lane. A prologue evaluation error means every lane's scalar
    /// evaluation fails identically, so `eval` fails the whole block over
    /// to the scalar rerun path (which reproduces the per-point fault
    /// behavior exactly).
    pub fn compile(pf: &Postfix, rows: &[u32]) -> Option<LaneProg> {
        /// Abstract stack entry: the subprogram computing it, classified
        /// by whether any lane row flows into it.
        enum Node {
            Scalar(Vec<PfOp>),
            Lane(Vec<LOp>),
        }
        /// Materialize a node as lane ops, hoisting non-trivial scalar
        /// subprograms into the prologue (trivial ones broadcast
        /// directly — a `Tmp` would only add a prologue dispatch).
        fn to_lane(node: Node, pre: &mut Vec<Postfix>) -> Vec<LOp> {
            match node {
                Node::Lane(v) => v,
                Node::Scalar(v) => match v[..] {
                    [PfOp::Const(k)] => vec![LOp::Const(k)],
                    [PfOp::Slot(s)] => vec![LOp::Slot(s)],
                    _ => {
                        let t = pre.len() as u32;
                        pre.push(Postfix::from_ops(v));
                        vec![LOp::Tmp(t)]
                    }
                },
            }
        }

        let mut pre: Vec<Postfix> = Vec::new();
        let mut st: Vec<Node> = Vec::new();
        for op in pf.ops() {
            match *op {
                PfOp::Const(k) => st.push(Node::Scalar(vec![PfOp::Const(k)])),
                // `rposition`: a redefined slot must resolve to its most
                // recent row, exactly as the scalar evaluator reads the
                // latest slot write.
                PfOp::Slot(s) => st.push(match rows.iter().rposition(|&r| r == s) {
                    Some(r) => Node::Lane(vec![LOp::Row(r as u32)]),
                    None => Node::Scalar(vec![PfOp::Slot(s)]),
                }),
                PfOp::Bin(_) | PfOp::Call2(_) => {
                    let b = st.pop()?;
                    let a = st.pop()?;
                    let (sop, lop) = match *op {
                        PfOp::Bin(o) => (PfOp::Bin(o), LOp::Bin(o)),
                        PfOp::Call2(f) => (PfOp::Call2(f), LOp::Call2(f)),
                        _ => unreachable!(),
                    };
                    match (a, b) {
                        (Node::Scalar(mut va), Node::Scalar(vb)) => {
                            va.extend(vb);
                            va.push(sop);
                            st.push(Node::Scalar(va));
                        }
                        (a, b) => {
                            let mut va = to_lane(a, &mut pre);
                            va.extend(to_lane(b, &mut pre));
                            va.push(lop);
                            st.push(Node::Lane(va));
                        }
                    }
                }
                PfOp::Neg | PfOp::Not | PfOp::Abs | PfOp::NormalizeBool => {
                    match st.last_mut()? {
                        Node::Scalar(v) => v.push(*op),
                        Node::Lane(v) => v.push(match *op {
                            PfOp::Neg => LOp::Neg,
                            PfOp::Not => LOp::Not,
                            PfOp::Abs => LOp::Abs,
                            _ => LOp::NormalizeBool,
                        }),
                    }
                }
                PfOp::Pop
                | PfOp::Jmp(_)
                | PfOp::JmpIfZeroKeep(_)
                | PfOp::JmpIfNonZeroKeep(_)
                | PfOp::JmpIfZeroPop(_) => return None,
            }
        }
        // A well-formed straight-line program reduces to exactly one node
        // (possibly fully lane-invariant: a one-op broadcast program).
        if st.len() != 1 {
            return None;
        }
        let ops = to_lane(st.pop().expect("checked"), &mut pre);
        let max_stack = lane_stack_bound(&ops);
        Some(LaneProg { pre, ops, max_stack })
    }

    /// Number of slab ops (diagnostics).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Number of hoisted lane-invariant prologue programs (diagnostics).
    pub fn hoisted(&self) -> usize {
        self.pre.len()
    }

    /// True for the empty program (never produced by `compile`).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Evaluate lanes `0..n` at once, writing the result slab into `out`
    /// and returning the fallible mask: bit `i` set means lane `i`'s scalar
    /// evaluation would error or panic, so its `out` value is garbage and
    /// the lane must be re-run on the scalar path. Lanes at or past `n` are
    /// not evaluated at all — their `out` values stay garbage and their
    /// mask bits stay clear — so slab cost scales with the *live* block
    /// size, not the full lane width (innermost domains are routinely far
    /// shorter than [`LANES`]). The caller intersects the mask with its
    /// alive/tail masks; the evaluation itself is total and panic-free for
    /// every lane value.
    ///
    /// `slots` supplies broadcast (loop-invariant) slot values, `rows` the
    /// per-lane slabs in batch-plan row order, `scratch` the reusable
    /// operand stacks. If a hoisted prologue program errors, the returned
    /// mask is all-ones: the error is lane-invariant, so every lane must
    /// take the scalar rerun path (which reproduces it per point).
    pub fn eval(
        &self,
        slots: &[i64],
        rows: &[Lane],
        n: usize,
        scratch: &mut EvalScratch,
        out: &mut Lane,
    ) -> u64 {
        debug_assert!(n <= LANES);
        let EvalScratch { stack, sstack, tmps } = scratch;
        tmps.clear();
        for p in &self.pre {
            match p.eval(slots, sstack) {
                Ok(v) => tmps.push(v),
                Err(_) => return !0u64,
            }
        }
        if stack.len() < self.max_stack {
            stack.resize(self.max_stack, [0i64; LANES]);
        }
        let mut sp = 0usize;
        let mut fall = 0u64;
        for op in &self.ops {
            match *op {
                LOp::Const(k) => {
                    stack[sp][..n].fill(k);
                    sp += 1;
                }
                LOp::Slot(s) => {
                    stack[sp][..n].fill(slots[s as usize]);
                    sp += 1;
                }
                LOp::Tmp(t) => {
                    stack[sp][..n].fill(tmps[t as usize]);
                    sp += 1;
                }
                LOp::Row(r) => {
                    stack[sp][..n].copy_from_slice(&rows[r as usize][..n]);
                    sp += 1;
                }
                LOp::Bin(op) => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    fall |= bin_lanes(op, &mut lo[sp - 1][..n], &hi[0][..n]);
                }
                LOp::Call2(f) => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    fall |= call2_lanes(f, &mut lo[sp - 1][..n], &hi[0][..n]);
                }
                LOp::Neg => {
                    for v in stack[sp - 1][..n].iter_mut() {
                        *v = v.wrapping_neg();
                    }
                }
                LOp::Not => {
                    for v in stack[sp - 1][..n].iter_mut() {
                        *v = i64::from(*v == 0);
                    }
                }
                LOp::Abs => {
                    for v in stack[sp - 1][..n].iter_mut() {
                        *v = v.wrapping_abs();
                    }
                }
                LOp::NormalizeBool => {
                    for v in stack[sp - 1][..n].iter_mut() {
                        *v = i64::from(*v != 0);
                    }
                }
            }
        }
        debug_assert_eq!(sp, 1, "program must leave exactly one slab");
        out[..n].copy_from_slice(&stack[0][..n]);
        fall
    }
}

/// Worst-case slab stack depth of a lane op stream (pushes minus pops,
/// linearly — lane programs are jump-free).
fn lane_stack_bound(ops: &[LOp]) -> usize {
    let mut depth: isize = 0;
    let mut max: isize = 1;
    for op in ops {
        match op {
            LOp::Const(_) | LOp::Slot(_) | LOp::Tmp(_) | LOp::Row(_) => {
                depth += 1;
                max = max.max(depth);
            }
            LOp::Bin(_) | LOp::Call2(_) => depth -= 1,
            LOp::Neg | LOp::Not | LOp::Abs | LOp::NormalizeBool => {}
        }
    }
    max as usize
}

/// Lane-wise strict binary op over equal-length lane slices, mirroring the
/// scalar evaluator bit for bit on non-fallible lanes; returns the fallible
/// mask.
fn bin_lanes(op: IntBinOp, a: &mut [i64], b: &[i64]) -> u64 {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    let mut fall = 0u64;
    match op {
        IntBinOp::Add => {
            for i in 0..n {
                a[i] = a[i].wrapping_add(b[i]);
            }
        }
        IntBinOp::Sub => {
            for i in 0..n {
                a[i] = a[i].wrapping_sub(b[i]);
            }
        }
        IntBinOp::Mul => {
            for i in 0..n {
                a[i] = a[i].wrapping_mul(b[i]);
            }
        }
        IntBinOp::Div => {
            // Scalar: error on b == 0; `wrapping_div` absorbs MIN / -1.
            for i in 0..n {
                let bad = b[i] == 0;
                fall |= (bad as u64) << i;
                let d = if bad { 1 } else { b[i] };
                a[i] = a[i].wrapping_div(d);
            }
        }
        IntBinOp::FloorDiv => {
            // Scalar: error on b == 0; `div_euclid` panics on MIN / -1.
            for i in 0..n {
                let bad = b[i] == 0 || (a[i] == i64::MIN && b[i] == -1);
                fall |= (bad as u64) << i;
                let d = if bad { 1 } else { b[i] };
                a[i] = a[i].div_euclid(d);
            }
        }
        IntBinOp::Rem => {
            // Scalar: error on b == 0; `wrapping_rem` absorbs MIN % -1.
            for i in 0..n {
                let bad = b[i] == 0;
                fall |= (bad as u64) << i;
                let d = if bad { 1 } else { b[i] };
                a[i] = a[i].wrapping_rem(d);
            }
        }
        IntBinOp::Lt => {
            for i in 0..n {
                a[i] = i64::from(a[i] < b[i]);
            }
        }
        IntBinOp::Le => {
            for i in 0..n {
                a[i] = i64::from(a[i] <= b[i]);
            }
        }
        IntBinOp::Gt => {
            for i in 0..n {
                a[i] = i64::from(a[i] > b[i]);
            }
        }
        IntBinOp::Ge => {
            for i in 0..n {
                a[i] = i64::from(a[i] >= b[i]);
            }
        }
        IntBinOp::Eq => {
            for i in 0..n {
                a[i] = i64::from(a[i] == b[i]);
            }
        }
        IntBinOp::Ne => {
            for i in 0..n {
                a[i] = i64::from(a[i] != b[i]);
            }
        }
        IntBinOp::And | IntBinOp::Or => unreachable!("lazy ops compile to jumps"),
    }
    fall
}

/// Lane-wise two-argument builtin over equal-length lane slices; returns
/// the fallible mask.
fn call2_lanes(f: Builtin, a: &mut [i64], b: &[i64]) -> u64 {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    let mut fall = 0u64;
    match f {
        Builtin::Min => {
            for i in 0..n {
                a[i] = a[i].min(b[i]);
            }
        }
        Builtin::Max => {
            for i in 0..n {
                a[i] = a[i].max(b[i]);
            }
        }
        Builtin::DivCeil => {
            // Scalar computes `(a + b - 1).div_euclid(b)` with raw +/-:
            // zero divisor errors, intermediate overflow panics (debug) or
            // wraps (release), MIN / -1 division panics. All three lane
            // classes go fallible; the rest match scalar exactly because
            // wrapping-without-overflow is exact.
            for i in 0..n {
                let (x, y) = (a[i], b[i]);
                let bad = y == 0
                    || match x.checked_add(y).and_then(|t| t.checked_sub(1)) {
                        None => true,
                        Some(t) => t == i64::MIN && y == -1,
                    };
                fall |= (bad as u64) << i;
                let d = if bad { 1 } else { y };
                let t = if bad { 0 } else { x.wrapping_add(y).wrapping_sub(1) };
                a[i] = t.div_euclid(d);
            }
        }
        Builtin::Gcd => {
            for i in 0..n {
                let (mut x, mut y) = (a[i].unsigned_abs(), b[i].unsigned_abs());
                while y != 0 {
                    let t = x % y;
                    x = y;
                    y = t;
                }
                a[i] = x as i64;
            }
        }
        Builtin::RoundUp => {
            // `DivCeil` plus a raw `* b`: the product overflow is one more
            // fallible class.
            for i in 0..n {
                let (x, y) = (a[i], b[i]);
                let bad = y == 0
                    || match x.checked_add(y).and_then(|t| t.checked_sub(1)) {
                        None => true,
                        Some(t) => {
                            (t == i64::MIN && y == -1)
                                || t.div_euclid(y).checked_mul(y).is_none()
                        }
                    };
                fall |= (bad as u64) << i;
                let d = if bad { 1 } else { y };
                let t = if bad { 0 } else { x.wrapping_add(y).wrapping_sub(1) };
                a[i] = t.div_euclid(d).wrapping_mul(d);
            }
        }
        Builtin::Abs => unreachable!("unary"),
    }
    fall
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::ir::IntExpr as E;

    fn pf(e: &E) -> Postfix {
        Postfix::compile(e)
    }

    fn bin(op: IntBinOp, a: E, b: E) -> E {
        E::Bin(op, Box::new(a), Box::new(b))
    }

    /// Run `prog` lane-wise with row 0 = `vals` and compare every lane
    /// against the scalar evaluator.
    fn check_lanes(p: &Postfix, slots: &[i64], row_slot: u32, vals: &[i64]) {
        let lp = LaneProg::compile(p, &[row_slot]).expect("straight-line");
        let mut row = [0i64; LANES];
        row[..vals.len()].copy_from_slice(vals);
        let mut scratch = EvalScratch::default();
        let mut out = [0i64; LANES];
        let fall = lp.eval(slots, &[row], vals.len(), &mut scratch, &mut out);
        let mut sslots = slots.to_vec();
        let mut sstack = Vec::new();
        for (i, &v) in vals.iter().enumerate() {
            sslots[row_slot as usize] = v;
            let scalar = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.eval(&sslots, &mut sstack)
            }));
            if fall & (1 << i) == 0 {
                let scalar = scalar.expect("non-fallible lane must not panic");
                assert_eq!(scalar, Ok(out[i]), "lane {i} value {v}");
            } else {
                // Fallible lanes must really be fallible in at least one
                // build profile; with overflow checks on (tests), that
                // means the scalar path errors or panics.
                #[cfg(debug_assertions)]
                assert!(
                    scalar.is_err() || scalar.unwrap().is_err(),
                    "lane {i} value {v} marked fallible but scalar succeeded"
                );
            }
        }
    }

    #[test]
    fn arithmetic_matches_scalar_on_extremes() {
        let e = bin(
            IntBinOp::Mul,
            bin(IntBinOp::Add, E::Slot(0), E::Slot(1)),
            E::Const(3),
        );
        let vals = [0, 1, -1, i64::MAX, i64::MIN, 1 << 62, -(1 << 62), 7];
        check_lanes(&pf(&e), &[0, 5], 0, &vals);
    }

    #[test]
    fn division_marks_zero_divisors_fallible() {
        let e = bin(IntBinOp::Div, E::Const(100), E::Slot(0));
        check_lanes(&pf(&e), &[0], 0, &[1, 0, -1, 5, 0, i64::MIN]);
        let e = bin(IntBinOp::FloorDiv, E::Slot(0), E::Slot(1));
        // Lane pattern includes MIN / -1 (div_euclid overflow).
        check_lanes(&pf(&e), &[i64::MIN, 0], 1, &[-1, 1, 0, 3]);
        let e = bin(IntBinOp::Rem, E::Slot(0), E::Slot(1));
        check_lanes(&pf(&e), &[i64::MIN, 0], 1, &[-1, 1, 0, 3]);
    }

    #[test]
    fn builtins_match_scalar() {
        let e = E::Call2(
            Builtin::DivCeil,
            Box::new(E::Slot(0)),
            Box::new(E::Slot(1)),
        );
        check_lanes(&pf(&e), &[37, 0], 1, &[4, 0, -4, 1, i64::MAX]);
        let e = E::Call2(
            Builtin::RoundUp,
            Box::new(E::Slot(0)),
            Box::new(E::Slot(1)),
        );
        check_lanes(&pf(&e), &[37, 0], 1, &[4, 0, -4, 1, i64::MAX]);
        let e = E::Call2(Builtin::Gcd, Box::new(E::Slot(0)), Box::new(E::Const(24)));
        check_lanes(&pf(&e), &[0], 0, &[18, 0, -18, 7, i64::MIN]);
    }

    #[test]
    fn jumpy_programs_are_rejected() {
        // x != 0 && 12 % x == 0 lowers to guard jumps.
        let e = bin(
            IntBinOp::And,
            bin(IntBinOp::Ne, E::Slot(0), E::Const(0)),
            bin(
                IntBinOp::Eq,
                bin(IntBinOp::Rem, E::Const(12), E::Slot(0)),
                E::Const(0),
            ),
        );
        assert!(LaneProg::compile(&pf(&e), &[0]).is_none());
    }

    #[test]
    fn lane_invariant_subexpressions_are_hoisted() {
        // (s1 * s2 + 1) % row: the whole left operand reads no lane row,
        // so it must fold into one hoisted prologue temp, leaving a
        // three-op lane program (Tmp, Row, Rem).
        let e = bin(
            IntBinOp::Rem,
            bin(
                IntBinOp::Add,
                bin(IntBinOp::Mul, E::Slot(1), E::Slot(2)),
                E::Const(1),
            ),
            E::Slot(0),
        );
        let p = pf(&e);
        let lp = LaneProg::compile(&p, &[0]).unwrap();
        assert_eq!(lp.hoisted(), 1, "invariant subtree not hoisted");
        assert_eq!(lp.len(), 3, "lane program should be Tmp Row Rem");
        check_lanes(&p, &[0, 6, 7], 0, &[1, 2, 3, 0, 43, -5]);
    }

    #[test]
    fn hoisted_prologue_error_fails_the_whole_block() {
        // row % (10 / s1) with s1 == 0: the divide-by-zero is
        // lane-invariant, so every lane must be marked fallible and no
        // slab result used.
        let e = bin(
            IntBinOp::Rem,
            E::Slot(0),
            bin(IntBinOp::Div, E::Const(10), E::Slot(1)),
        );
        let lp = LaneProg::compile(&pf(&e), &[0]).unwrap();
        assert_eq!(lp.hoisted(), 1);
        let mut scratch = EvalScratch::default();
        let mut out = [0i64; LANES];
        let fall = lp.eval(&[0, 0], &[[7i64; LANES]], 4, &mut scratch, &mut out);
        assert_eq!(fall, !0, "prologue error must fail every lane over");
        // With a nonzero divisor the same program evaluates normally.
        let fall = lp.eval(&[0, 5], &[[7i64; LANES]], 4, &mut scratch, &mut out);
        assert_eq!(fall & 0b1111, 0);
        assert_eq!(out[0], 7 % 2);
    }

    #[test]
    fn tail_and_dead_lane_garbage_is_harmless() {
        // Division by a row whose tail lanes are zero: the slab must not
        // fault even when asked to evaluate the garbage tail, and live
        // lanes must still be exact.
        let e = bin(IntBinOp::Div, E::Const(64), E::Slot(0));
        let lp = LaneProg::compile(&pf(&e), &[0]).unwrap();
        let mut row = [0i64; LANES]; // all-zero garbage tail
        row[0] = 4;
        row[1] = 2;
        let mut scratch = EvalScratch::default();
        let mut out = [0i64; LANES];
        let fall = lp.eval(&[0], &[row], LANES, &mut scratch, &mut out);
        assert_eq!(out[0], 16);
        assert_eq!(out[1], 32);
        assert_eq!(fall & 0b11, 0);
        assert_eq!(fall >> 2, (1u64 << (LANES - 2)) - 1, "tail lanes fallible");

        // With the runtime lane bound the garbage tail is never evaluated:
        // no fall bits at or past `n`, and live lanes are unchanged.
        let fall = lp.eval(&[0], &[row], 2, &mut scratch, &mut out);
        assert_eq!(out[0], 16);
        assert_eq!(out[1], 32);
        assert_eq!(fall, 0, "lanes past the bound must not be evaluated");
    }
}
