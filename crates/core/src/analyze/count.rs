//! Exact survivor counting (model counting) over the lowered plan.
//!
//! The guards of `beast-engine` and the linter passes of this module can
//! prove subtrees *dead*; this analysis answers the complementary question:
//! exactly **how many** survivors does a subtree hold? [`Counter`] walks the
//! plan in loop order like an enumeration engine would, but instead of
//! visiting survivors it computes subtree cardinalities bottom-up and reuses
//! them aggressively:
//!
//! * **Footprint memoization** — the survivor count below a loop level is a
//!   function of only the outer values that the subtree's defines and checks
//!   actually *read* (its dependency footprint, computed once from the
//!   plan's read/write sets). Sibling subtrees that do not depend on an
//!   outer binding therefore share one cache entry, and counting costs far
//!   less than enumeration whenever the nest is not fully entangled.
//! * **Product-domain restriction** — before enumerating a level's realized
//!   domain, the straight-line run of defines and checks at that level is
//!   evaluated once over the interval × congruence product with the loop
//!   variable abstracted to its whole domain; a decided rejection proves
//!   the level empty without touching a single value. When the run contains
//!   `%`-family checks against concrete moduli, the same abstract pass runs
//!   per *residue class* of the domain (`congruence` answers the `% == 0`
//!   family exactly), and every value in a rejected class is skipped
//!   wholesale — the counting analog of the engine's congruence guards.
//!
//! The per-level cache entries ([`LevelEntry`]) keep the feasible values
//! with cumulative subtree counts, which is exactly the table a
//! count-weighted *direct sampler* needs to draw uniform survivors with
//! zero rejections in O(depth): see [`Counter::descend`] and
//! `beast_search`'s `DirectSampler`.
//!
//! Counts saturate at `u128::MAX` (unreachable for any space that could
//! ever be enumerated); work is bounded by a [`CountBudget`] so the linter
//! can afford an exact-count pass without risking a runaway analysis.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use crate::error::EvalError;
use crate::expr::Bindings;
use crate::interval::{Interval, IvProg};
use crate::ir::{IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};
use crate::iterator::Realized;
use crate::value::Value;

use super::congruence::{cg_of_bind, cg_of_values, eval_product, Congruence, Product};

/// Work limits for a counting run. Exceeding either limit aborts the
/// analysis ([`Counter::total`] returns `None`) rather than degrading to an
/// approximate count — every number this module reports is exact.
#[derive(Debug, Clone, Copy)]
pub struct CountBudget {
    /// Maximum concrete values recursed into across the whole run.
    pub max_enumerated: u64,
    /// Maximum memo entries kept alive.
    pub max_memo_entries: usize,
}

impl Default for CountBudget {
    fn default() -> CountBudget {
        CountBudget { max_enumerated: 50_000_000, max_memo_entries: 500_000 }
    }
}

/// Per-loop-level counters of a counting run.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Iterator name bound at this level.
    pub name: Arc<str>,
    /// Loop depth.
    pub depth: usize,
    /// Memo entries computed at this level (cache misses).
    pub entries: u64,
    /// Realized domain values summed over computed entries.
    pub domain_values: u64,
    /// Values whose subtree count is nonzero, summed over computed entries.
    pub feasible_values: u64,
    /// Values skipped wholesale because their residue class was rejected by
    /// the abstract pass.
    pub residue_skipped: u64,
}

/// Aggregate counters of a counting run.
#[derive(Debug, Clone, Default)]
pub struct CountStats {
    /// Subtree counts answered from the footprint cache.
    pub cache_hits: u64,
    /// Subtree counts computed by enumeration.
    pub cache_misses: u64,
    /// Concrete values recursed into.
    pub enumerated: u64,
    /// Whole levels proven empty by the abstract pre-pass alone.
    pub domains_rejected: u64,
    /// Residue classes rejected by the abstract pre-pass.
    pub residue_classes_pruned: u64,
    /// Per-level counters, outermost first.
    pub levels: Vec<LevelStats>,
}

/// The feasible domain of one loop level under one dependency footprint:
/// every value with a nonzero subtree count, paired with the *cumulative*
/// count up to and including that value. The last cumulative value is the
/// level's total; per-value counts are adjacent differences. Cumulative
/// form makes a count-weighted draw a binary search.
///
/// An entry is a borrowed view into the counter's memo, in one of two
/// layouts that answer every query identically.
#[derive(Debug, Clone, Copy)]
pub struct LevelEntry<'m>(Layout<'m>);

#[derive(Debug, Clone, Copy)]
enum Layout<'m> {
    /// Materialized: the feasible values in loop order and, in parallel
    /// (same length), their cumulative counts.
    Table { values: &'m [i64], cums: &'m [u128] },
    /// A uniform range level: the `len` values `start + k·step` all have
    /// the same nonzero subtree count `each`, so the table is implicit and
    /// the `k`-th cumulative count is `(k + 1)·each`, saturating. `step` is
    /// nonzero: a range with a zero step is empty and never uniform.
    Uniform { start: i64, step: i64, len: usize, each: u128 },
}

impl LevelEntry<'_> {
    /// Total survivor count below this level.
    pub fn total(&self) -> u128 {
        match self.0 {
            Layout::Table { cums, .. } => cums.last().copied().unwrap_or(0),
            Layout::Uniform { len, each, .. } => each.saturating_mul(len as u128),
        }
    }

    /// Number of feasible values.
    pub fn len(&self) -> usize {
        match self.0 {
            Layout::Table { values, .. } => values.len(),
            Layout::Uniform { len, .. } => len,
        }
    }

    /// True when no value survives.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th feasible value.
    pub fn value_at(&self, i: usize) -> i64 {
        match self.0 {
            Layout::Table { values, .. } => values[i],
            Layout::Uniform { start, step, len, .. } => {
                assert!(i < len, "index {i} out of range for a level of {len} values");
                start.wrapping_add((i as i64).wrapping_mul(step))
            }
        }
    }

    /// Cumulative count up to and including the `i`-th value.
    fn cum_at(&self, i: usize) -> u128 {
        match self.0 {
            Layout::Table { cums, .. } => cums[i],
            Layout::Uniform { each, .. } => each.saturating_mul(i as u128 + 1),
        }
    }

    /// Subtree count of the `i`-th feasible value.
    pub fn count_at(&self, i: usize) -> u128 {
        let prev = if i == 0 { 0 } else { self.cum_at(i - 1) };
        self.cum_at(i) - prev
    }

    /// Position of a feasible value.
    pub fn position_of(&self, v: i64) -> Option<usize> {
        match self.0 {
            Layout::Table { values, .. } => values.iter().position(|&x| x == v),
            Layout::Uniform { start, step, len, .. } => {
                let (d, step) = (i128::from(v) - i128::from(start), i128::from(step));
                (d % step == 0 && (0..len as i128).contains(&(d / step)))
                    .then(|| (d / step) as usize)
            }
        }
    }

    /// Count-weighted selection: map a survivor index `idx` in
    /// `[0, total)` to `(value, remainder)` where `remainder` indexes the
    /// survivors below that value. This is the weighted-descent step: a
    /// single uniform index over the whole subtree decomposes level by
    /// level into a unique survivor.
    pub fn pick(&self, idx: u128) -> (i64, u128) {
        let p = match self.0 {
            Layout::Table { cums, .. } => cums.partition_point(|&cum| cum <= idx),
            // Below `total` no cumulative count has saturated yet, so the
            // bracket of `idx` is plain division.
            Layout::Uniform { each, .. } => (idx / each).min(usize::MAX as u128) as usize,
        };
        let prev = if p == 0 { 0 } else { self.cum_at(p - 1) };
        (self.value_at(p), idx - prev)
    }
}

/// One step of a count-weighted descent (see [`Counter::descend`]).
pub enum DescentStep<'m> {
    /// The walk reached a loop level: pick a feasible value from `entry`,
    /// write it to `slot`, and continue from `step + 1`.
    Level {
        /// Index of the `Bind` step in `lp.steps`.
        step: usize,
        /// Slot the level binds.
        slot: u32,
        /// Feasible values with cumulative subtree counts.
        entry: LevelEntry<'m>,
    },
    /// A survivor was reached; the slot array holds its values.
    Done,
    /// A check rejected the prefix (unreachable when every level picked a
    /// feasible value).
    Dead,
}

/// Positional slot view over the space's constants — the counting analog of
/// the engine's `SlotBindings`, used to realize opaque iterators and
/// evaluate deferred defines/checks.
struct SlotView<'a> {
    names: &'a [Arc<str>],
    slots: &'a [i64],
    consts: &'a [(Arc<str>, Value)],
}

impl Bindings for SlotView<'_> {
    fn get(&self, name: &str) -> Option<Value> {
        if let Some(i) = self.names.iter().position(|n| &**n == name) {
            return Some(Value::Int(self.slots[i]));
        }
        self.consts.iter().find(|(n, _)| &**n == name).map(|(_, v)| v.clone())
    }
}

/// Maximum residue classes the abstract pre-pass will test per level.
const MAX_RESIDUE_CLASSES: u64 = 64;

/// Maximum modulus considered for residue-class filtering.
const MAX_MODULUS: i64 = 1 << 20;

/// Empty slot of a [`LevelMemo`] index.
const EMPTY: u32 = u32::MAX;

/// How one memoized entry is stored (see [`LevelEntry`]).
#[derive(Clone, Copy)]
enum Stored {
    /// `len` values at `off` in the counter's shared table slabs.
    Table { off: usize, len: usize },
    /// A uniform range level, kept as its four parameters.
    Uniform { start: i64, step: i64, len: usize, each: u128 },
}

/// The memo of one `Bind` step. Entry `k`'s key (the footprint values) is
/// `keys[k·width..(k + 1)·width]`; `index` is an open-addressing table of
/// entry ids over those keys, with linear probing and a power-of-two size
/// kept at most half full.
#[derive(Default)]
struct LevelMemo {
    width: usize,
    keys: Vec<i64>,
    index: Vec<u32>,
    entries: Vec<Stored>,
}

impl LevelMemo {
    /// Home slot of `key` in the index (multiplicative hash, top bits).
    fn home(&self, key: &[i64]) -> usize {
        let mut h = 0u64;
        for &v in key {
            h = (h.rotate_left(5) ^ v as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        (h >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// The entry whose key equals the probe key at `keys[at..]`, the tail
    /// of the slab.
    fn find(&self, at: usize) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        let key = &self.keys[at..];
        let mask = self.index.len() - 1;
        let mut pos = self.home(key);
        loop {
            let id = self.index[pos];
            if id == EMPTY {
                return None;
            }
            let k = id as usize * self.width;
            if &self.keys[k..k + self.width] == key {
                return Some(id);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Store `stored` under the probe key left at the tail of the slab.
    fn insert(&mut self, stored: Stored) -> u32 {
        let id = self.entries.len() as u32;
        self.entries.push(stored);
        if self.entries.len() * 2 > self.index.len() {
            self.index = vec![EMPTY; (self.index.len() * 2).max(16)];
            for id in 0..self.entries.len() as u32 {
                self.place(id);
            }
        } else {
            self.place(id);
        }
        id
    }

    /// Put entry `id` in the first free slot of its probe sequence.
    fn place(&mut self, id: u32) {
        let k = id as usize * self.width;
        let mask = self.index.len() - 1;
        let mut pos = self.home(&self.keys[k..k + self.width]);
        while self.index[pos] != EMPTY {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = id;
    }

    /// Bytes held by the slab, index and entry records.
    fn bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<i64>()
            + self.index.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<Stored>()
    }
}

/// A level entry just computed, before it is stored. A table entry's
/// values sit in the level's scratch buffer.
struct Fresh {
    /// Realized domain length.
    domain_len: usize,
    /// Values skipped by residue-class filtering.
    residue_skipped: u64,
    /// `(start, step, each)` of a uniform range level.
    uniform: Option<(i64, i64, u128)>,
}

/// Memoized exact survivor counter over a lowered plan.
pub struct Counter<'a> {
    lp: &'a LoweredPlan,
    budget: CountBudget,
    /// Skip constraint checks entirely: counts the (dependent) Cartesian
    /// tuple space instead — the denominator of a survival rate.
    ignore_checks: bool,
    aborted: bool,
    /// Per step: sorted slots the suffix starting at this step reads from
    /// outside (the dependency footprint).
    footprints: Vec<Box<[u32]>>,
    /// Per step: a define whose value nothing observable reads (tuple mode
    /// only, see [`Counter::build`]); counting skips its evaluation.
    dead: Vec<bool>,
    /// Per step: compiled interval program for expression bodies.
    progs: Vec<Option<IvProg>>,
    /// Per `Bind` step: `%`-divisor expressions inside the level's run whose
    /// reads are all bound before the level — residue-filter candidates.
    rem_divisors: Vec<Vec<&'a IntExpr>>,
    /// Per step: level ordinal (outermost first) of a `Bind`.
    level_of: Vec<usize>,
    /// Per level: the memo of its `Bind` step.
    memos: Vec<LevelMemo>,
    /// Entries stored across all levels.
    memo_entries: usize,
    /// Shared slabs of every table entry: values and cumulative counts.
    table_values: Vec<i64>,
    table_cums: Vec<u128>,
    /// Per level: reused buffer a table entry is built in.
    scratch: Vec<Vec<(i64, u128)>>,
    stats: CountStats,
}

impl<'a> Counter<'a> {
    /// Counter with the default budget.
    pub fn new(lp: &'a LoweredPlan) -> Counter<'a> {
        Counter::with_budget(lp, CountBudget::default())
    }

    /// Counter with an explicit work budget.
    pub fn with_budget(lp: &'a LoweredPlan, budget: CountBudget) -> Counter<'a> {
        Counter::build(lp, budget, false)
    }

    /// Counter of the *unconstrained* tuple space (checks ignored): the
    /// denominator for survival rates. Dependent domains still realize under
    /// outer values, so this is the exact number of tuples an exhaustive
    /// sweep would test constraints on.
    pub fn tuples(lp: &'a LoweredPlan) -> Counter<'a> {
        Counter::tuples_with_budget(lp, CountBudget::default())
    }

    /// [`Counter::tuples`] with an explicit budget.
    pub fn tuples_with_budget(lp: &'a LoweredPlan, budget: CountBudget) -> Counter<'a> {
        Counter::build(lp, budget, true)
    }

    fn build(lp: &'a LoweredPlan, budget: CountBudget, ignore_checks: bool) -> Counter<'a> {
        let space = lp.plan.space();
        let n_steps = lp.steps.len();
        let slot_of: HashMap<&str, u32> = lp
            .slot_names
            .iter()
            .enumerate()
            .map(|(i, n)| (&**n, i as u32))
            .collect();

        // Declared dependency names of an opaque step, mapped to slots
        // (constant deps vanish at lowering and carry no slot).
        let deps_to_slots = |names: &BTreeSet<Arc<str>>, out: &mut BTreeSet<u32>| {
            for n in names {
                if let Some(&s) = slot_of.get(&**n) {
                    out.insert(s);
                }
            }
        };

        // Suffix footprints: fp[i] = reads(step i) ∪ (fp[i+1] \ writes(step i)).
        // A step's own reads happen before its write, so they are added
        // after the write's removal.
        let mut footprints: Vec<Box<[u32]>> = vec![Box::default(); n_steps];
        let mut fp: BTreeSet<u32> = BTreeSet::new();
        let mut deps = BTreeSet::new();
        for i in (0..n_steps).rev() {
            match &lp.steps[i] {
                LStep::Bind { slot, domain, iter, .. } => {
                    fp.remove(slot);
                    match domain {
                        LIter::Range { start, stop, step } => {
                            for e in [start, stop, step] {
                                super::for_each_slot(e, &mut |s| {
                                    fp.insert(s);
                                });
                            }
                        }
                        LIter::Values(_) => {}
                        LIter::Opaque { .. } => {
                            deps.clear();
                            space.iters()[*iter].kind.collect_deps(&mut deps);
                            deps_to_slots(&deps, &mut fp);
                        }
                    }
                }
                LStep::Define { slot, body, derived } => {
                    fp.remove(slot);
                    match body {
                        LBody::Expr(e) => super::for_each_slot(e, &mut |s| {
                            fp.insert(s);
                        }),
                        LBody::Opaque => {
                            deps.clear();
                            space.deriveds()[*derived].kind.collect_deps(&mut deps);
                            deps_to_slots(&deps, &mut fp);
                        }
                    }
                }
                // In tuple mode checks never run, so their reads do not
                // constrain the subtree: leaving them out both widens cache
                // sharing and enables the uniform-level product shortcut.
                LStep::Check { .. } if ignore_checks => {}
                LStep::Check { body, constraint } => match body {
                    LBody::Expr(e) => super::for_each_slot(e, &mut |s| {
                        fp.insert(s);
                    }),
                    LBody::Opaque => {
                        deps.clear();
                        space.constraints()[*constraint].kind.collect_deps(&mut deps);
                        deps_to_slots(&deps, &mut fp);
                    }
                },
                LStep::Visit => {}
            }
            footprints[i] = fp.iter().copied().collect();
        }

        // Dead defines (tuple mode): a define is dead when no later bind
        // domain, memo-key footprint or live define reads its slot (checks
        // never run here) and its expression cannot fail. Skipping it
        // leaves every key, count and error unchanged: the footprints above
        // still include its reads, and it could not have raised an error.
        let mut dead = vec![false; n_steps];
        if ignore_checks {
            let mut read_later: BTreeSet<u32> = BTreeSet::new();
            for i in (0..n_steps).rev() {
                match &lp.steps[i] {
                    LStep::Bind { .. } => read_later.extend(footprints[i].iter().copied()),
                    LStep::Define { slot, body: LBody::Expr(e), .. }
                        if !read_later.contains(slot) && e.infallible() =>
                    {
                        dead[i] = true
                    }
                    LStep::Define { body: LBody::Expr(e), .. } => {
                        super::for_each_slot(e, &mut |s| {
                            read_later.insert(s);
                        })
                    }
                    LStep::Define { body: LBody::Opaque, derived, .. } => {
                        deps.clear();
                        space.deriveds()[*derived].kind.collect_deps(&mut deps);
                        deps_to_slots(&deps, &mut read_later);
                    }
                    LStep::Check { .. } | LStep::Visit => {}
                }
            }
        }

        // Compiled abstract programs for every expression body.
        let progs: Vec<Option<IvProg>> = lp
            .steps
            .iter()
            .map(|s| match s {
                LStep::Define { body: LBody::Expr(e), .. }
                | LStep::Check { body: LBody::Expr(e), .. } => Some(IvProg::compile(e)),
                _ => None,
            })
            .collect();

        // Slots written strictly before each step, for residue-filter
        // candidate divisors (they must be fully bound at the level).
        let mut written_before: Vec<Vec<bool>> = Vec::with_capacity(n_steps);
        let mut written = vec![false; lp.n_slots as usize];
        for s in &lp.steps {
            written_before.push(written.clone());
            match s {
                LStep::Bind { slot, .. } | LStep::Define { slot, .. } => {
                    written[*slot as usize] = true
                }
                _ => {}
            }
        }

        // Residue-filter candidates per Bind: `a % d` divisors appearing in
        // the level's run of checks, with every slot of `d` bound before
        // the level opens.
        let mut rem_divisors: Vec<Vec<&'a IntExpr>> = vec![Vec::new(); n_steps];
        let mut level_of = vec![usize::MAX; n_steps];
        let mut memos = Vec::new();
        let mut levels = Vec::new();
        for (i, s) in lp.steps.iter().enumerate() {
            let LStep::Bind { slot: _, depth, iter, .. } = s else { continue };
            level_of[i] = levels.len();
            memos.push(LevelMemo { width: footprints[i].len(), ..LevelMemo::default() });
            levels.push(LevelStats {
                name: space.iters()[*iter].name.clone(),
                depth: *depth,
                entries: 0,
                domain_values: 0,
                feasible_values: 0,
                residue_skipped: 0,
            });
            let mut divisors = Vec::new();
            for step in &lp.steps[i + 1..] {
                match step {
                    LStep::Bind { .. } | LStep::Visit => break,
                    LStep::Check { body: LBody::Expr(e), .. } => {
                        collect_rem_divisors(e, &mut |d| {
                            let mut ok = true;
                            super::for_each_slot(d, &mut |s| {
                                ok &= written_before[i][s as usize];
                            });
                            if ok {
                                divisors.push(d);
                            }
                        });
                    }
                    _ => {}
                }
            }
            rem_divisors[i] = divisors;
        }

        Counter {
            lp,
            budget,
            ignore_checks,
            aborted: false,
            footprints,
            dead,
            progs,
            rem_divisors,
            level_of,
            scratch: vec![Vec::new(); memos.len()],
            memos,
            memo_entries: 0,
            table_values: Vec::new(),
            table_cums: Vec::new(),
            stats: CountStats { levels, ..CountStats::default() },
        }
    }

    /// Exact survivor count of the whole space; `None` when the work budget
    /// was exhausted before the count completed.
    pub fn total(&mut self) -> Result<Option<u128>, EvalError> {
        let mut slots = vec![0i64; self.lp.n_slots as usize];
        let c = self.count_from(0, &mut slots)?;
        Ok((!self.aborted).then_some(c))
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CountStats {
        &self.stats
    }

    /// True when a budget limit stopped the analysis.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Bytes the memo holds: key slabs, indexes, entry records and the
    /// shared value/count tables.
    pub fn memo_bytes(&self) -> usize {
        self.memos.iter().map(LevelMemo::bytes).sum::<usize>()
            + self.table_values.capacity() * std::mem::size_of::<i64>()
            + self.table_cums.capacity() * std::mem::size_of::<u128>()
    }

    /// Walk the straight-line steps from `from`, evaluating defines and
    /// checks concretely against `slots`, until a loop level, a survivor or
    /// a rejection is reached. Returns `None` when the work budget aborts
    /// the underlying count (never happens after a successful
    /// [`Counter::total`], whose cache then answers every level).
    pub fn descend(
        &mut self,
        from: usize,
        slots: &mut [i64],
    ) -> Result<Option<DescentStep<'_>>, EvalError> {
        let lp = self.lp;
        let space = lp.plan.space();
        let mut i = from;
        loop {
            match &lp.steps[i] {
                LStep::Visit => return Ok(Some(DescentStep::Done)),
                LStep::Define { slot, body, derived } => {
                    slots[*slot as usize] = eval_define(lp, space, *derived, body, slots)?;
                    i += 1;
                }
                LStep::Check { constraint, body } => {
                    if !self.ignore_checks && eval_check(lp, space, *constraint, body, slots)? {
                        return Ok(Some(DescentStep::Dead));
                    }
                    i += 1;
                }
                LStep::Bind { slot, .. } => {
                    let slot = *slot;
                    let (_, id) = self.entry_at(i, slots)?;
                    return Ok(match id {
                        Some(id) if !self.aborted => Some(DescentStep::Level {
                            step: i,
                            slot,
                            entry: self.entry(self.level_of[i], id),
                        }),
                        _ => None,
                    });
                }
            }
        }
    }

    /// Count survivors of the subtree rooted at step `from` under the bound
    /// prefix in `slots`.
    fn count_from(&mut self, from: usize, slots: &mut [i64]) -> Result<u128, EvalError> {
        let lp = self.lp;
        let space = lp.plan.space();
        let mut i = from;
        loop {
            if self.aborted {
                return Ok(0);
            }
            match &lp.steps[i] {
                LStep::Visit => return Ok(1),
                LStep::Define { .. } if self.dead[i] => i += 1,
                LStep::Define { slot, body, derived } => {
                    slots[*slot as usize] = eval_define(lp, space, *derived, body, slots)?;
                    i += 1;
                }
                LStep::Check { constraint, body } => {
                    if !self.ignore_checks && eval_check(lp, space, *constraint, body, slots)? {
                        return Ok(0);
                    }
                    i += 1;
                }
                LStep::Bind { .. } => return Ok(self.entry_at(i, slots)?.0),
            }
        }
    }

    /// View of stored entry `id` of `level`.
    fn entry(&self, level: usize, id: u32) -> LevelEntry<'_> {
        match self.memos[level].entries[id as usize] {
            Stored::Table { off, len } => LevelEntry(Layout::Table {
                values: &self.table_values[off..off + len],
                cums: &self.table_cums[off..off + len],
            }),
            Stored::Uniform { start, step, len, each } => {
                LevelEntry(Layout::Uniform { start, step, len, each })
            }
        }
    }

    /// The feasible-domain entry of the loop level at step `i` under the
    /// bound prefix in `slots`, as its total and its id in the level's memo:
    /// answered from the footprint cache when the footprint values match a
    /// previous subtree, computed (and cached) otherwise. The id is `None`
    /// when a budget limit stopped the analysis and the entry was not kept.
    fn entry_at(&mut self, i: usize, slots: &mut [i64]) -> Result<(u128, Option<u32>), EvalError> {
        // The probe key goes to the tail of the level's key slab, where a
        // miss leaves it as the new entry's key. Nothing below this level
        // touches its memo, so the tail is still the key after recursion.
        let level = self.level_of[i];
        let memo = &mut self.memos[level];
        let key_at = memo.keys.len();
        memo.keys.extend(self.footprints[i].iter().map(|&s| slots[s as usize]));
        if let Some(id) = memo.find(key_at) {
            memo.keys.truncate(key_at);
            self.stats.cache_hits += 1;
            return Ok((self.entry(level, id).total(), Some(id)));
        }
        self.stats.cache_misses += 1;

        let mut table = std::mem::take(&mut self.scratch[level]);
        table.clear();
        let fresh = match self.compute_entry(i, slots, &mut table) {
            Ok(fresh) => fresh,
            Err(e) => {
                self.memos[level].keys.truncate(key_at);
                self.scratch[level] = table;
                return Err(e);
            }
        };
        let (stored, feasible, total) = match fresh.uniform {
            Some((start, step, each)) => {
                let len = fresh.domain_len;
                (Stored::Uniform { start, step, len, each }, len, each.saturating_mul(len as u128))
            }
            None => (
                Stored::Table { off: self.table_values.len(), len: table.len() },
                table.len(),
                table.last().map_or(0, |&(_, c)| c),
            ),
        };

        let mut id = None;
        if !self.aborted {
            let lvl = &mut self.stats.levels[level];
            lvl.entries += 1;
            lvl.domain_values += fresh.domain_len as u64;
            lvl.feasible_values += feasible as u64;
            lvl.residue_skipped += fresh.residue_skipped;
            if self.memo_entries < self.budget.max_memo_entries.min(EMPTY as usize) {
                if let Stored::Table { .. } = stored {
                    self.table_values.extend(table.iter().map(|&(v, _)| v));
                    self.table_cums.extend(table.iter().map(|&(_, c)| c));
                }
                self.memo_entries += 1;
                id = Some(self.memos[level].insert(stored));
            } else {
                self.aborted = true;
            }
        }
        if id.is_none() {
            self.memos[level].keys.truncate(key_at);
        }
        self.scratch[level] = table;
        Ok((total, id))
    }

    /// Compute the entry of the loop level at step `i` (a cache miss): a
    /// uniform level as its parameters, any other level as its feasible
    /// values with cumulative counts, pushed to `table`.
    fn compute_entry(
        &mut self,
        i: usize,
        slots: &mut [i64],
        table: &mut Vec<(i64, u128)>,
    ) -> Result<Fresh, EvalError> {
        let lp = self.lp;
        let space = lp.plan.space();
        let LStep::Bind { slot, iter, domain, .. } = &lp.steps[i] else {
            unreachable!("entry_at is only called on Bind steps")
        };
        let (slot, iter) = (*slot, *iter);

        let realized = match domain {
            LIter::Range { start, stop, step } => Realized::Range {
                start: start.eval(slots)?,
                stop: stop.eval(slots)?,
                step: step.eval(slots)?,
            },
            LIter::Values(v) => {
                Realized::Values(v.iter().map(|&x| Value::Int(x)).collect())
            }
            LIter::Opaque { .. } => {
                let view = SlotView {
                    names: &lp.slot_names,
                    slots,
                    consts: space.consts(),
                };
                space.realize_iter(iter, &view)?
            }
        };
        let len = realized.len();
        let mut fresh = Fresh { domain_len: len, residue_skipped: 0, uniform: None };

        // Abstract pre-pass over the level's run, with the loop variable
        // abstracted to its whole realized domain. A decided rejection
        // proves the level empty outright.
        let dom = domain_product(&realized)?;
        let whole_rejected = !self.ignore_checks
            && len > 0
            && match &dom {
                Some((iv, cg)) => self.run_rejects(i, slots, slot, *iv, *cg),
                None => false,
            };
        // Uniform-level shortcut: when nothing after this bind reads the
        // bound slot (checks included — in tuple mode they are excluded
        // from footprints because they never run), every value has the
        // same subtree count: recurse once and replicate. A range level
        // keeps only its parameters.
        let uniform =
            len > 0 && self.footprints[i + 1].binary_search(&slot).is_err();
        if whole_rejected {
            self.stats.domains_rejected += 1;
        } else if uniform {
            self.stats.enumerated += 1;
            if self.stats.enumerated > self.budget.max_enumerated {
                self.aborted = true;
            } else {
                slots[slot as usize] = realized.nth_value(0).expect("len > 0").as_int()?;
                let c = self.count_from(i + 1, slots)?;
                if c > 0 {
                    if let Realized::Range { start, step, .. } = realized {
                        fresh.uniform = Some((start, step, c));
                    } else {
                        let mut cum = 0u128;
                        table.reserve(len);
                        for k in 0..len {
                            let v = realized.nth_value(k).expect("index in range").as_int()?;
                            cum = cum.saturating_add(c);
                            table.push((v, cum));
                        }
                    }
                }
            }
        } else {
            // Residue-class filtering: test each residue class of the
            // domain against the run once; values in rejected classes are
            // skipped without recursion.
            let rejected_classes = if self.ignore_checks {
                None
            } else {
                self.rejected_residue_classes(i, slots, slot, &realized, &dom)?
            };
            let mut cum = 0u128;
            for k in 0..len {
                let v = realized.nth_value(k).expect("index in range").as_int()?;
                if let Some((m, rej)) = &rejected_classes {
                    if rej.contains(&v.rem_euclid(*m)) {
                        fresh.residue_skipped += 1;
                        continue;
                    }
                }
                self.stats.enumerated += 1;
                if self.stats.enumerated > self.budget.max_enumerated {
                    self.aborted = true;
                    break;
                }
                slots[slot as usize] = v;
                let c = self.count_from(i + 1, slots)?;
                if c > 0 {
                    cum = cum.saturating_add(c);
                    table.push((v, cum));
                }
            }
        }
        Ok(fresh)
    }

    /// Evaluate the level's straight-line run (defines and checks up to the
    /// next loop or the visit) over the interval × congruence product, with
    /// the level's variable abstracted to `(x_iv, x_cg)` and every outer
    /// slot an exact point. Returns `true` when some check *provably*
    /// rejects every concretization — and no step before it could have
    /// raised a runtime error instead (`clean` tracking), so skipping the
    /// whole class is observationally identical to enumerating it.
    fn run_rejects(
        &mut self,
        bind_step: usize,
        slots: &[i64],
        bind_slot: u32,
        x_iv: Interval,
        x_cg: Congruence,
    ) -> bool {
        let lp = self.lp;
        let mut iv_env: Vec<Interval> =
            slots.iter().map(|&v| Interval::point(v)).collect();
        let mut cg_env: Vec<Congruence> =
            slots.iter().map(|&v| Congruence::point(v)).collect();
        iv_env[bind_slot as usize] = x_iv;
        cg_env[bind_slot as usize] = x_cg;
        let mut stack: Vec<Product> = Vec::new();
        let mut run_clean = true;
        for (j, step) in lp.steps.iter().enumerate().skip(bind_step + 1) {
            match step {
                LStep::Bind { .. } | LStep::Visit => break,
                LStep::Define { slot, body, .. } => match body {
                    LBody::Expr(_) => {
                        let prog = self.progs[j].as_ref().expect("expr body compiled");
                        let (o, cg) = eval_product(prog, &iv_env, &cg_env, &mut stack);
                        run_clean &= o.clean;
                        iv_env[*slot as usize] = o.iv;
                        cg_env[*slot as usize] = cg;
                    }
                    LBody::Opaque => {
                        run_clean = false;
                        iv_env[*slot as usize] = Interval::TOP;
                        cg_env[*slot as usize] = Congruence::top();
                    }
                },
                LStep::Check { body, .. } => match body {
                    LBody::Expr(_) => {
                        let prog = self.progs[j].as_ref().expect("expr body compiled");
                        let (o, cg) = eval_product(prog, &iv_env, &cg_env, &mut stack);
                        if run_clean && o.clean && (!o.iv.contains(0) || cg.always_nonzero())
                        {
                            return true;
                        }
                        run_clean &= o.clean;
                    }
                    LBody::Opaque => run_clean = false,
                },
            }
        }
        false
    }

    /// Residue classes of the level's domain rejected by the abstract run.
    /// Returns `Some((modulus, rejected residues))` when filtering applies,
    /// `None` when no profitable modulus exists.
    fn rejected_residue_classes(
        &mut self,
        bind_step: usize,
        slots: &[i64],
        bind_slot: u32,
        realized: &Realized,
        dom: &Option<(Interval, Congruence)>,
    ) -> Result<Option<(i64, HashSet<i64>)>, EvalError> {
        let Some((dom_iv, _)) = dom else { return Ok(None) };
        // Combine the concrete values of every candidate divisor into one
        // modulus (lcm, capped): testing classes mod the lcm decides every
        // individual `%` check at once.
        let mut modulus: i64 = 1;
        for d in &self.rem_divisors[bind_step] {
            let Ok(v) = d.eval(slots) else { continue };
            let v = v.unsigned_abs().min(i64::MAX as u64) as i64;
            if !(2..=MAX_MODULUS).contains(&v) {
                continue;
            }
            let g = gcd(modulus, v);
            match (modulus / g).checked_mul(v) {
                Some(l) if l <= MAX_MODULUS => modulus = l,
                _ => {}
            }
        }
        if modulus < 2 {
            return Ok(None);
        }

        // Residue classes the domain actually visits.
        let classes: Vec<i64> = match realized {
            Realized::Range { start, step, .. } => {
                let g = gcd(step.unsigned_abs().min(i64::MAX as u64) as i64, modulus);
                let period = (modulus / g) as u64;
                if period > MAX_RESIDUE_CLASSES || period as usize >= realized.len() {
                    return Ok(None);
                }
                (0..period)
                    .map(|t| (start.rem_euclid(modulus) + t as i64 * g) % modulus)
                    .collect()
            }
            Realized::Values(vs) => {
                let mut set = BTreeSet::new();
                for v in vs {
                    set.insert(v.as_int()?.rem_euclid(modulus));
                }
                if set.len() as u64 > MAX_RESIDUE_CLASSES || set.len() >= vs.len() {
                    return Ok(None);
                }
                set.into_iter().collect()
            }
        };

        let mut rejected = HashSet::new();
        for c in classes {
            let cg = Congruence { m: modulus, r: c.rem_euclid(modulus) };
            if self.run_rejects(bind_step, slots, bind_slot, *dom_iv, cg) {
                self.stats.residue_classes_pruned += 1;
                rejected.insert(c);
            }
        }
        Ok((!rejected.is_empty()).then_some((modulus, rejected)))
    }
}

/// Concrete evaluation of a define body (expression or deferred closure).
fn eval_define(
    lp: &LoweredPlan,
    space: &crate::space::Space,
    derived: usize,
    body: &LBody,
    slots: &[i64],
) -> Result<i64, EvalError> {
    match body {
        LBody::Expr(e) => e.eval(slots),
        LBody::Opaque => {
            let view = SlotView { names: &lp.slot_names, slots, consts: space.consts() };
            space.deriveds()[derived].kind.eval(&view)?.as_int()
        }
    }
}

/// Concrete evaluation of a check body; `true` means reject.
fn eval_check(
    lp: &LoweredPlan,
    space: &crate::space::Space,
    constraint: usize,
    body: &LBody,
    slots: &[i64],
) -> Result<bool, EvalError> {
    match body {
        LBody::Expr(e) => Ok(e.eval(slots)? != 0),
        LBody::Opaque => {
            let view = SlotView { names: &lp.slot_names, slots, consts: space.consts() };
            space.constraints()[constraint].kind.rejects(&view)
        }
    }
}

/// The whole-domain abstraction of a realized domain: value hull interval
/// plus the exact progression congruence. `None` for an empty domain.
fn domain_product(realized: &Realized) -> Result<Option<(Interval, Congruence)>, EvalError> {
    let len = realized.len();
    if len == 0 {
        return Ok(None);
    }
    match realized {
        Realized::Range { start, step, .. } => {
            let first = *start;
            let last = start.wrapping_add((len as i64 - 1).wrapping_mul(*step));
            let iv = Interval::new(first, last);
            let cg = cg_of_bind(Congruence::point(first), Congruence::point(*step));
            Ok(Some((iv, cg)))
        }
        Realized::Values(vs) => {
            let mut ints = Vec::with_capacity(vs.len());
            for v in vs {
                ints.push(v.as_int()?);
            }
            let (lo, hi) = (
                ints.iter().copied().min().expect("nonempty"),
                ints.iter().copied().max().expect("nonempty"),
            );
            Ok(Some((Interval::new(lo, hi), cg_of_values(&ints))))
        }
    }
}

/// Collect the divisor subexpressions of every `%` node.
fn collect_rem_divisors<'e>(e: &'e IntExpr, f: &mut impl FnMut(&'e IntExpr)) {
    match e {
        IntExpr::Const(_) | IntExpr::Slot(_) => {}
        IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => collect_rem_divisors(a, f),
        IntExpr::Bin(op, a, b) => {
            if *op == IntBinOp::Rem {
                f(b);
            }
            collect_rem_divisors(a, f);
            collect_rem_divisors(b, f);
        }
        IntExpr::Call2(_, a, b) => {
            collect_rem_divisors(a, f);
            collect_rem_divisors(b, f);
        }
        IntExpr::Ternary(c, t, x) => {
            collect_rem_divisors(c, f);
            collect_rem_divisors(t, f);
            collect_rem_divisors(x, f);
        }
    }
}

/// Nonnegative gcd (total: `gcd(0, 0) == 0`).
fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintClass;
    use crate::expr::var;
    use crate::plan::{Plan, PlanOptions};
    use crate::space::Space;

    fn lower(space: &Arc<Space>) -> LoweredPlan {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    /// Brute-force survivor count by walking the plan recursively.
    fn brute_force(lp: &LoweredPlan) -> u128 {
        fn walk(lp: &LoweredPlan, i: usize, slots: &mut Vec<i64>) -> u128 {
            let space = lp.plan.space();
            match &lp.steps[i] {
                LStep::Visit => 1,
                LStep::Define { slot, body, derived } => {
                    slots[*slot as usize] =
                        eval_define(lp, space, *derived, body, slots).unwrap();
                    walk(lp, i + 1, slots)
                }
                LStep::Check { constraint, body } => {
                    if eval_check(lp, space, *constraint, body, slots).unwrap() {
                        0
                    } else {
                        walk(lp, i + 1, slots)
                    }
                }
                LStep::Bind { slot, iter, domain, .. } => {
                    let realized = match domain {
                        LIter::Range { start, stop, step } => Realized::Range {
                            start: start.eval(slots).unwrap(),
                            stop: stop.eval(slots).unwrap(),
                            step: step.eval(slots).unwrap(),
                        },
                        LIter::Values(v) => {
                            Realized::Values(v.iter().map(|&x| Value::Int(x)).collect())
                        }
                        LIter::Opaque { .. } => {
                            let view = SlotView {
                                names: &lp.slot_names,
                                slots,
                                consts: space.consts(),
                            };
                            space.realize_iter(*iter, &view).unwrap()
                        }
                    };
                    let mut total = 0u128;
                    for k in 0..realized.len() {
                        slots[*slot as usize] =
                            realized.nth_value(k).unwrap().as_int().unwrap();
                        total += walk(lp, i + 1, slots);
                    }
                    total
                }
            }
        }
        let mut slots = vec![0i64; lp.n_slots as usize];
        walk(lp, 0, &mut slots)
    }

    #[test]
    fn counts_match_brute_force_on_a_dependent_space() {
        let space = Space::builder("count_mini")
            .constant("cap", 30)
            .range("a", 1, 9)
            .range_step("b", var("a"), 33, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(brute_force(&lp)));
    }

    #[test]
    fn independent_dimensions_share_cache_entries() {
        let space = Space::builder("count_indep")
            .range("x", 0, 100)
            .range("y", 0, 100)
            .constraint("x_even", ConstraintClass::Hard, (var("x") % 2).ne(0))
            .constraint("y_mod3", ConstraintClass::Hard, (var("y") % 3).ne(0))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(50 * 34));
        // y's subtree reads nothing of x: one computed entry, 49 hits.
        assert!(counter.stats().cache_hits >= 49, "{:?}", counter.stats());
        assert!(
            counter.stats().enumerated < 100 * 100,
            "memoization failed to beat enumeration: {:?}",
            counter.stats()
        );
    }

    #[test]
    fn residue_classes_prune_stepped_divisibility() {
        // b steps by 1 but only multiples of 24 survive: the class pass
        // should reject the 23 dead residue classes wholesale.
        let space = Space::builder("count_residue")
            .range("b", 0, 2400)
            .constraint("mult", ConstraintClass::Hard, (var("b") % 24).ne(0))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(100));
        assert!(counter.stats().residue_classes_pruned >= 23, "{:?}", counter.stats());
        assert_eq!(counter.stats().enumerated, 100);
    }

    #[test]
    fn whole_domain_rejection_skips_enumeration() {
        let space = Space::builder("count_empty_level")
            .range("x", 1, 1000)
            .constraint("nope", ConstraintClass::Hard, var("x").ge(1))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(0));
        assert_eq!(counter.stats().enumerated, 0, "{:?}", counter.stats());
        assert_eq!(counter.stats().domains_rejected, 1);
    }

    #[test]
    fn tuples_mode_ignores_checks() {
        let space = Space::builder("count_tuples")
            .range("a", 0, 10)
            .range("b", 0, 7)
            .constraint("all", ConstraintClass::Hard, var("a").ge(0))
            .build()
            .unwrap();
        let lp = lower(&space);
        assert_eq!(Counter::tuples(&lp).total().unwrap(), Some(70));
        assert_eq!(Counter::new(&lp).total().unwrap(), Some(0));
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        let space = Space::builder("count_budget")
            .range("a", 0, 1000)
            .range_step("b", var("a"), 100_000, crate::expr::lit(1))
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::with_budget(
            &lp,
            CountBudget { max_enumerated: 100, max_memo_entries: 8 },
        );
        assert_eq!(counter.total().unwrap(), None);
        assert!(counter.aborted());
    }

    #[test]
    fn level_entry_pick_is_a_weighted_inverse() {
        let entry = LevelEntry(Layout::Table { values: &[10, 20, 40], cums: &[2, 3, 7] });
        assert_eq!(entry.total(), 7);
        assert_eq!(entry.count_at(0), 2);
        assert_eq!(entry.count_at(1), 1);
        assert_eq!(entry.count_at(2), 4);
        let picks: Vec<(i64, u128)> = (0..7).map(|i| entry.pick(i)).collect();
        assert_eq!(
            picks,
            vec![(10, 0), (10, 1), (20, 0), (40, 0), (40, 1), (40, 2), (40, 3)]
        );
        assert_eq!(entry.position_of(20), Some(1));
        assert_eq!(entry.position_of(30), None);
    }

    /// Every query of `entry` at every position agrees with the same level
    /// materialized as a cumulative table.
    fn assert_matches_materialized(start: i64, step: i64, len: usize, each: u128) {
        let entry = LevelEntry(Layout::Uniform { start, step, len, each });
        let values: Vec<i64> =
            (0..len).map(|k| start.wrapping_add((k as i64).wrapping_mul(step))).collect();
        let mut cum = 0u128;
        let cums: Vec<u128> = (0..len)
            .map(|_| {
                cum = cum.saturating_add(each);
                cum
            })
            .collect();
        let table = LevelEntry(Layout::Table { values: &values, cums: &cums });
        assert_eq!(entry.total(), table.total());
        assert_eq!(entry.len(), table.len());
        for k in 0..len {
            assert_eq!(entry.value_at(k), table.value_at(k), "value_at({k})");
            assert_eq!(entry.count_at(k), table.count_at(k), "count_at({k})");
            for v in [values[k], values[k] + 1, values[k] - 1] {
                assert_eq!(entry.position_of(v), table.position_of(v), "position_of({v})");
            }
            // Both ends of the value's bracket of survivor indices.
            let lo = if k == 0 { 0 } else { cums[k - 1] };
            for idx in [lo, cums[k].wrapping_sub(1)] {
                if idx >= lo && idx < table.total() {
                    assert_eq!(entry.pick(idx), table.pick(idx), "pick({idx})");
                }
            }
        }
        for v in [start.wrapping_sub(step), start.wrapping_add(step.wrapping_mul(len as i64))] {
            assert_eq!(entry.position_of(v), table.position_of(v), "position_of({v})");
        }
        if table.total() < 1000 {
            for idx in 0..table.total() {
                assert_eq!(entry.pick(idx), table.pick(idx), "pick({idx})");
            }
        }
    }

    #[test]
    fn compact_uniform_entries_agree_with_their_tables() {
        assert_matches_materialized(3, 5, 7, 4);
        // Counting down.
        assert_matches_materialized(40, -3, 9, 6);
        // Cumulative counts saturate from the third value on.
        assert_matches_materialized(-10, -2, 6, u128::MAX / 3 + 1);
    }

    #[test]
    fn uniform_range_levels_are_stored_compactly() {
        // Nothing reads `b`, so its level is uniform and stays a range.
        let space = Space::builder("count_uniform")
            .range("a", 0, 4)
            .range_step("b", 100, 0, -5)
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        assert_eq!(counter.total().unwrap(), Some(4 * 20));
        assert!(counter.table_values.len() <= 4, "b's values were materialized");
        let mut slots = vec![0i64; lp.n_slots as usize];
        slots[0] = 2;
        let Some(DescentStep::Level { entry, .. }) = counter.descend(1, &mut slots).unwrap()
        else {
            panic!("expected b's level")
        };
        assert!(matches!(entry.0, Layout::Uniform { start: 100, step: -5, len: 20, each: 1 }));
        assert!(counter.memo_bytes() > 0);
    }

    #[test]
    fn tuple_mode_still_raises_errors_of_fallible_dead_defines() {
        // `q` is read only by a check, so it is dead in tuple mode, but it
        // may divide by zero: it keeps running and the error surfaces,
        // although the `y == 0` check would have pruned that tuple.
        let space = Space::builder("count_dead_div")
            .range("x", 0, 5)
            .range("y", 0, 4)
            .constraint("y_zero", ConstraintClass::Hard, var("y").eq(0))
            .derived("q", var("x") / var("y"))
            .constraint("q_big", ConstraintClass::Hard, var("q").gt(3))
            .build()
            .unwrap();
        let lp = lower(&space);
        assert!(!Counter::tuples(&lp).dead.iter().any(|&d| d));
        assert!(matches!(Counter::tuples(&lp).total(), Err(EvalError::DivisionByZero)));
    }

    #[test]
    fn dead_infallible_defines_are_skipped_without_changing_the_count() {
        let space = Space::builder("count_dead")
            .range("x", 0, 6)
            // `hi` bounds a later domain: live.
            .derived("hi", var("x") + 2)
            // `a2` is only read by `b2`, but `b2` reads it from outside
            // y's level, so it is part of y's memo key: live.
            .derived("a2", var("x") * 2)
            .range("y", 0, var("hi"))
            // `b2` is only read by a check: dead in tuple mode.
            .derived("b2", var("a2") + var("y"))
            .constraint("cap", ConstraintClass::Hard, var("b2").gt(7))
            .build()
            .unwrap();
        let lp = lower(&space);
        let dead_names = |c: &Counter<'_>| -> Vec<String> {
            lp.steps
                .iter()
                .zip(&c.dead)
                .filter(|(_, &d)| d)
                .map(|(s, _)| match s {
                    LStep::Define { slot, .. } => lp.slot_names[*slot as usize].to_string(),
                    _ => panic!("only defines can be dead"),
                })
                .collect()
        };
        let mut tuples = Counter::tuples(&lp);
        assert_eq!(dead_names(&tuples), vec!["b2".to_string()]);
        // Σ_{x<6} (x + 2) tuples, as without the skip.
        assert_eq!(tuples.total().unwrap(), Some(2 + 3 + 4 + 5 + 6 + 7));
        let mut survivors = Counter::new(&lp);
        assert!(dead_names(&survivors).is_empty());
        assert_eq!(survivors.total().unwrap(), Some(brute_force(&lp)));
    }

    #[test]
    fn opaque_iterators_are_counted_through_the_space() {
        let space = Space::builder("count_opaque")
            .range("a", 1, 5)
            .deferred_iter("b", &["a"], |env| {
                Ok(Realized::Range { start: 0, stop: env.require_int("a")?, step: 1 })
            })
            .build()
            .unwrap();
        let lp = lower(&space);
        let mut counter = Counter::new(&lp);
        // 1 + 2 + 3 + 4 dependent values.
        assert_eq!(counter.total().unwrap(), Some(10));
    }
}
