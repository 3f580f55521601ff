//! The interprocedural flow rules (R7–R10) over the symbol model.
//!
//! All four rules share one whole-program fixpoint over per-function
//! summaries:
//!
//! * **R7 `det-taint`** — `taints_return` / `param_sink`: does a function
//!   return a wall-clock/entropy-derived value; does its k-th parameter
//!   flow into an artifact sink?
//! * **R8 `unit-flow`** — `ret_unit`: the physical unit a function returns,
//!   inferred from its name suffix or its return expression; locals gain
//!   units through assignment.
//! * **R9 `shared-state`** — `shared_return`: does a function return a
//!   value read from shared mutable state (atomics, locks, once-cells)?
//! * **R10 `panic-reach`** — `may_panic`: can a call into this function
//!   reach `panic!`/`unreachable!`/a bare `.unwrap()`?
//!
//! Call edges are resolved by *name* (plus `impl`-type qualifier and
//! method-ness), the same trade the whole analyzer makes. Ambiguity is
//! handled by refusing: a name with more than [`MAX_CANDIDATES`] workspace
//! definitions produces no edge, so a common name never fans taint across
//! the workspace. That keeps every rule conservative in the false-positive
//! direction at the cost of missing flows through very common names.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{fn_name_unit, ident_unit};
use crate::model::{BinOp, CallSite, FileModel, FnModel, Operand, OperandKind, Unit};
use crate::{is_test_path, Config, FileScan, Rule, Violation};

/// One analyzed file as the flow layer sees it.
pub struct FlowFile<'a> {
    /// The symbol model (carries the path).
    pub model: &'a FileModel,
    /// The token-layer scan (pragma bookkeeping).
    pub scan: &'a FileScan,
    /// Raw source lines, for snippets.
    pub raw: Vec<&'a str>,
}

/// Flow-rule findings plus the pragma uses they consumed (for the
/// stale-pragma audit).
#[derive(Debug, Default)]
pub struct FlowOutput {
    /// Unsuppressed findings, ordered by (path, line, rule).
    pub violations: Vec<Violation>,
    /// `(file_index, pragma_line, rule)` of pragmas that silenced a flow
    /// finding.
    pub pragma_uses: Vec<(usize, usize, Rule)>,
}

/// A function reference: (file index, fn index).
type FnRef = (usize, usize);

/// Names defined more often than this produce no call edges.
const MAX_CANDIDATES: usize = 4;

/// Method names that collide with std prelude/iterator combinators. A
/// `.map(..)` receiver call is overwhelmingly `Iterator::map`, not a
/// workspace method that happens to share the name — resolving it to one
/// would wire false panic/taint edges through half the call graph. Method
/// calls with these names get an edge only when the qualifier pins the
/// impl type explicitly (which receiver syntax never does).
const STD_METHOD_NAMES: [&str; 40] = [
    "map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_or",
    "map_or_else",
    "map_err",
    "ok_or",
    "ok_or_else",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "collect",
    "extend",
    "retain",
    "contains",
    "find",
    "position",
    "any",
    "all",
    "zip",
    "rev",
    "take",
    "store",
    "load",
    "swap",
    "replace",
    "parse",
    "split",
    "next",
];

/// Receiver methods whose two sides must share a unit.
const CLAMP_METHODS: [&str; 9] = [
    "min",
    "max",
    "clamp",
    "saturating_add",
    "saturating_sub",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
];

#[derive(Debug, Clone, Default)]
struct Summary {
    taints_return: bool,
    shared_return: bool,
    may_panic: bool,
    param_sink: Vec<bool>,
    ret_unit: Option<Unit>,
}

/// Run R7–R10 over the workspace model.
pub fn run(files: &[FlowFile<'_>], cfg: &Config) -> FlowOutput {
    let engine = Engine::new(files, cfg);
    engine.findings()
}

struct Engine<'a> {
    files: &'a [FlowFile<'a>],
    cfg: &'a Config,
    /// name -> all fns with that name.
    index: BTreeMap<&'a str, Vec<FnRef>>,
    /// Per-call-site resolutions, indexed `[file][fn][call]`. Resolution
    /// depends only on the static models, never on summaries, so it is
    /// computed exactly once instead of on every fixpoint visit.
    call_cands: Vec<Vec<Vec<Vec<FnRef>>>>,
    /// callee -> callers that read its summary (the worklist edges).
    rev_deps: BTreeMap<FnRef, BTreeSet<FnRef>>,
    summaries: Vec<Vec<Summary>>,
    /// Per-fn wall-clock-tainted locals / shared-state-tainted locals.
    wall_locals: Vec<Vec<BTreeSet<String>>>,
    shared_locals: Vec<Vec<BTreeSet<String>>>,
    unit_locals: Vec<Vec<BTreeMap<String, Unit>>>,
}

/// Resolve a call site against the name index (see the module docs for
/// the ambiguity-refusal rules). Free function so `Engine::new` can run
/// it before the engine exists.
fn resolve_call(
    files: &[FlowFile<'_>],
    index: &BTreeMap<&str, Vec<FnRef>>,
    call: &CallSite,
) -> Vec<FnRef> {
    let Some(cands) = index.get(call.callee.as_str()) else {
        return Vec::new();
    };
    if call.is_method && call.qual.is_none() && STD_METHOD_NAMES.contains(&call.callee.as_str()) {
        return Vec::new();
    }
    let fn_model = |r: FnRef| -> &FnModel { &files[r.0].model.fns[r.1] };
    let mut cands: Vec<FnRef> = cands.clone();
    if call.is_method {
        cands.retain(|&r| fn_model(r).has_self);
    }
    if let Some(q) = &call.qual {
        // An uppercase qualifier names the impl type; `Self` does not
        // narrow. Lowercase qualifiers are module paths and any
        // definition may match.
        if q != "Self" && q.chars().next().is_some_and(|c| c.is_uppercase()) {
            cands.retain(|&r| fn_model(r).qual.as_deref() == Some(q.as_str()));
        }
    }
    if cands.len() > MAX_CANDIDATES {
        return Vec::new();
    }
    cands
}

impl<'a> Engine<'a> {
    fn new(files: &'a [FlowFile<'a>], cfg: &'a Config) -> Engine<'a> {
        let mut index: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (fj, f) in file.model.fns.iter().enumerate() {
                if !f.name.is_empty() {
                    index.entry(f.name.as_str()).or_default().push((fi, fj));
                }
            }
        }

        // Resolve every call site once, and record the reverse summary
        // dependencies the worklist propagates along: a function must be
        // revisited when any callee whose summary it reads changes.
        let mut call_cands: Vec<Vec<Vec<Vec<FnRef>>>> = Vec::with_capacity(files.len());
        let mut rev_deps: BTreeMap<FnRef, BTreeSet<FnRef>> = BTreeMap::new();
        let resolve_name = |name: &str| -> &[FnRef] {
            match index.get(name) {
                Some(c) if c.len() <= MAX_CANDIDATES => c,
                _ => &[],
            }
        };
        for (fi, file) in files.iter().enumerate() {
            let mut per_fn = Vec::with_capacity(file.model.fns.len());
            for (fj, f) in file.model.fns.iter().enumerate() {
                let caller = (fi, fj);
                let mut per_call = Vec::with_capacity(f.calls.len());
                for c in &f.calls {
                    let cands = resolve_call(files, &index, c);
                    for &t in &cands {
                        rev_deps.entry(t).or_default().insert(caller);
                    }
                    per_call.push(cands);
                }
                let named_deps = f
                    .return_calls
                    .iter()
                    .chain(f.assigns.iter().flat_map(|a| a.rhs_calls.iter()));
                for n in named_deps {
                    for &t in resolve_name(n) {
                        rev_deps.entry(t).or_default().insert(caller);
                    }
                }
                per_fn.push(per_call);
            }
            call_cands.push(per_fn);
        }

        let summaries = files
            .iter()
            .map(|f| {
                f.model
                    .fns
                    .iter()
                    .map(|m| Summary {
                        param_sink: vec![false; m.params.len()],
                        ..Summary::default()
                    })
                    .collect()
            })
            .collect();
        let empty_sets = |files: &[FlowFile]| {
            files
                .iter()
                .map(|f| f.model.fns.iter().map(|_| BTreeSet::new()).collect())
                .collect()
        };
        let mut engine = Engine {
            files,
            cfg,
            index,
            call_cands,
            rev_deps,
            summaries,
            wall_locals: empty_sets(files),
            shared_locals: empty_sets(files),
            unit_locals: files
                .iter()
                .map(|f| f.model.fns.iter().map(|_| BTreeMap::new()).collect())
                .collect(),
        };
        engine.fixpoint();
        engine
    }

    fn fn_model(&self, r: FnRef) -> &'a FnModel {
        &self.files[r.0].model.fns[r.1]
    }

    /// Memoized resolution for call `ci` of function `r`.
    fn cands(&self, r: FnRef, ci: usize) -> &[FnRef] {
        &self.call_cands[r.0][r.1][ci]
    }

    fn is_test_file(&self, fi: usize) -> bool {
        is_test_path(&self.files[fi].model.path)
    }

    fn is_test_fn(&self, r: FnRef) -> bool {
        self.fn_model(r).in_test || self.is_test_file(r.0)
    }

    /// Resolve a bare name (no call-site context).
    fn resolve_name(&self, name: &str) -> &[FnRef] {
        match self.index.get(name) {
            Some(c) if c.len() <= MAX_CANDIDATES => c,
            _ => &[],
        }
    }

    fn is_sanctioned(&self, name: &str) -> bool {
        self.cfg.sanctioned_sinks.iter().any(|s| s == name)
    }

    fn is_sink_name(&self, name: &str) -> bool {
        !self.is_sanctioned(name) && self.cfg.taint_sinks.iter().any(|s| s == name)
    }

    /// R10 seed: a panic the function commits directly. Bare `.unwrap()`
    /// only seeds from non-hot files — in hot files `clippy::unwrap_used`
    /// (denied there) already owns the unwrap line itself, and
    /// double-reporting every caller would drown the signal.
    fn direct_panic(&self, r: FnRef) -> Option<(usize, String)> {
        let f = self.fn_model(r);
        let hot = Config::matches(&self.cfg.hot_markers, &self.files[r.0].model.path);
        f.panic_lines
            .iter()
            .find(|(_, tok)| tok != ".unwrap()" || !hot)
            .cloned()
    }

    /// The whole-program fixpoint over all four summary kinds: a reverse-
    /// dependency worklist. Every function is visited once; after that a
    /// function is revisited only when a callee whose summary it reads
    /// changed, so total work tracks the number of changed edges rather
    /// than `rounds x workspace`.
    fn fixpoint(&mut self) {
        let rev_deps = std::mem::take(&mut self.rev_deps);
        let mut queue: std::collections::VecDeque<FnRef> = std::collections::VecDeque::new();
        let mut queued: BTreeSet<FnRef> = BTreeSet::new();
        for fi in 0..self.files.len() {
            for fj in 0..self.files[fi].model.fns.len() {
                queue.push_back((fi, fj));
                queued.insert((fi, fj));
            }
        }
        // Unit inference is not strictly monotone (a second candidate
        // unit collapses Some -> None), so bound the visit count like the
        // old round loop bounded rounds.
        let mut budget = 64 * queued.len().max(1);
        while let Some(r) = queue.pop_front() {
            queued.remove(&r);
            if budget == 0 {
                break;
            }
            budget -= 1;
            if self.update_fn(r) {
                for &d in rev_deps.get(&r).into_iter().flatten() {
                    if queued.insert(d) {
                        queue.push_back(d);
                    }
                }
            }
        }
        self.rev_deps = rev_deps;
    }

    /// Recompute one function's locals and summary; true if anything grew.
    fn update_fn(&mut self, r: FnRef) -> bool {
        let f = self.fn_model(r);
        let mut changed = false;

        // -- locals ----------------------------------------------------
        let wall = self.compute_locals(r, f, &f.source_lines, |e, t| {
            e.summaries[t.0][t.1].taints_return
        });
        let shared = self.compute_locals(r, f, &f.shared_reads, |e, t| {
            e.summaries[t.0][t.1].shared_return
        });
        let units = self.compute_unit_locals(f);
        if wall != self.wall_locals[r.0][r.1] {
            self.wall_locals[r.0][r.1] = wall;
            changed = true;
        }
        if shared != self.shared_locals[r.0][r.1] {
            self.shared_locals[r.0][r.1] = shared;
            changed = true;
        }
        if units != self.unit_locals[r.0][r.1] {
            self.unit_locals[r.0][r.1] = units;
            changed = true;
        }

        // -- summary ---------------------------------------------------
        let taints_return = f.returns_value
            && (f.return_lines.iter().any(|l| f.source_lines.contains(l))
                || f.return_idents
                    .iter()
                    .any(|i| self.wall_locals[r.0][r.1].contains(i))
                || f.return_calls.iter().any(|n| {
                    self.resolve_name(n)
                        .iter()
                        .any(|&t| self.summaries[t.0][t.1].taints_return)
                }));
        let shared_return = f.returns_value
            && (f.return_lines.iter().any(|l| f.shared_reads.contains(l))
                || f.return_idents
                    .iter()
                    .any(|i| self.shared_locals[r.0][r.1].contains(i))
                || f.return_calls.iter().any(|n| {
                    self.resolve_name(n)
                        .iter()
                        .any(|&t| self.summaries[t.0][t.1].shared_return)
                }));
        let may_panic = !self.is_test_fn(r)
            && (self.direct_panic(r).is_some()
                || (0..f.calls.len()).any(|ci| {
                    self.cands(r, ci)
                        .iter()
                        .any(|&t| t != r && self.summaries[t.0][t.1].may_panic)
                }));
        let ret_unit = self.infer_ret_unit(r, f);
        let param_sink: Vec<bool> = (0..f.params.len())
            .map(|k| self.summaries[r.0][r.1].param_sink[k] || self.param_reaches_sink(r, f, k))
            .collect();

        let s = &mut self.summaries[r.0][r.1];
        let next = Summary {
            taints_return,
            shared_return,
            may_panic,
            param_sink,
            ret_unit,
        };
        if s.taints_return != next.taints_return
            || s.shared_return != next.shared_return
            || s.may_panic != next.may_panic
            || s.param_sink != next.param_sink
            || s.ret_unit != next.ret_unit
        {
            *s = next;
            changed = true;
        }
        changed
    }

    /// Intra-procedural taint: locals assigned from seed lines, from
    /// already-tainted locals, or from calls whose return is tainted.
    fn compute_locals(
        &self,
        r: FnRef,
        f: &FnModel,
        seeds: &[usize],
        target_tainted: impl Fn(&Engine, FnRef) -> bool,
    ) -> BTreeSet<String> {
        let mut tainted: BTreeSet<String> = BTreeSet::new();
        for _ in 0..8 {
            let mut grew = false;
            for a in &f.assigns {
                if tainted.contains(&a.lhs) {
                    continue;
                }
                if seeds.contains(&a.line) || a.rhs_idents.iter().any(|i| tainted.contains(i)) {
                    tainted.insert(a.lhs.clone());
                    grew = true;
                }
            }
            for (ci, c) in f.calls.iter().enumerate() {
                let Some(lhs) = &c.assigned_to else { continue };
                if tainted.contains(lhs) {
                    continue;
                }
                if self.cands(r, ci).iter().any(|&t| target_tainted(self, t)) {
                    tainted.insert(lhs.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        tainted
    }

    /// Locals that carry a physical unit: by their own name, or assigned
    /// from a single-unit rhs (an ident or call with a known unit).
    fn compute_unit_locals(&self, f: &FnModel) -> BTreeMap<String, Unit> {
        let mut units: BTreeMap<String, Unit> = BTreeMap::new();
        for _ in 0..4 {
            let mut grew = false;
            for a in &f.assigns {
                if units.contains_key(&a.lhs) || ident_unit(&a.lhs).is_some() {
                    continue;
                }
                let mut found: BTreeSet<Unit> = BTreeSet::new();
                for i in &a.rhs_idents {
                    if let Some(u) = ident_unit(i).or_else(|| units.get(i).copied()) {
                        found.insert(u);
                    }
                }
                for n in &a.rhs_calls {
                    if let Some(u) = self.name_ret_unit(n) {
                        found.insert(u);
                    }
                }
                if found.len() == 1 {
                    units.insert(a.lhs.clone(), *found.iter().next().expect("len 1"));
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        units
    }

    /// Unit a named function returns: the name convention first, then the
    /// workspace definitions (all must agree).
    fn name_ret_unit(&self, name: &str) -> Option<Unit> {
        if let Some(u) = fn_name_unit(name) {
            return Some(u);
        }
        let cands = self.resolve_name(name);
        let units: BTreeSet<Unit> = cands
            .iter()
            .filter_map(|&t| self.summaries[t.0][t.1].ret_unit)
            .collect();
        (units.len() == 1 && !cands.is_empty()).then(|| *units.iter().next().expect("len 1"))
    }

    fn infer_ret_unit(&self, r: FnRef, f: &FnModel) -> Option<Unit> {
        if !f.returns_value {
            return None;
        }
        if let Some(u) = fn_name_unit(&f.name) {
            return Some(u);
        }
        let locals = &self.unit_locals[r.0][r.1];
        let mut found: BTreeSet<Unit> = BTreeSet::new();
        for i in &f.return_idents {
            if let Some(u) = ident_unit(i).or_else(|| locals.get(i).copied()) {
                found.insert(u);
            }
        }
        for n in &f.return_calls {
            if let Some(u) = self.name_ret_unit(n) {
                found.insert(u);
            }
        }
        (found.len() == 1).then(|| *found.iter().next().expect("len 1"))
    }

    /// Does parameter `k` of `r` flow into a sink (directly or through a
    /// callee's sink-reaching parameter)?
    fn param_reaches_sink(&self, r: FnRef, f: &FnModel, k: usize) -> bool {
        let name = &f.params[k].name;
        if name.is_empty() {
            return false;
        }
        for (ci, c) in f.calls.iter().enumerate() {
            if self.is_sink_name(&c.callee) && c.args.iter().flatten().any(|a| a == name) {
                return true;
            }
            if self.is_sanctioned(&c.callee) {
                continue;
            }
            for (ak, arg) in c.args.iter().enumerate() {
                if !arg.iter().any(|a| a == name) {
                    continue;
                }
                if self.cands(r, ci).iter().any(|&t| {
                    self.summaries[t.0][t.1]
                        .param_sink
                        .get(ak)
                        .copied()
                        .unwrap_or(false)
                }) {
                    return true;
                }
            }
        }
        f.struct_lits
            .iter()
            .any(|l| self.is_sink_name(&l.name) && l.idents.iter().any(|i| i == name))
    }

    // -----------------------------------------------------------------
    // Findings.
    // -----------------------------------------------------------------

    fn findings(&self) -> FlowOutput {
        let mut out = FlowOutput::default();
        let mut seen: BTreeSet<(usize, usize, Rule, String)> = BTreeSet::new();

        for (fi, file) in self.files.iter().enumerate() {
            if self.is_test_file(fi) {
                continue;
            }
            let path = &file.model.path;
            let det = Config::matches(&self.cfg.det_markers, path);
            let hot = Config::matches(&self.cfg.hot_markers, path);
            let shared_ok = Config::matches(&self.cfg.shared_state_allowed, path);

            // R9: interior-mutable statics outside the executor.
            if !shared_ok {
                for s in &file.model.statics {
                    if s.in_test || !(s.is_mut || s.interior_mutable) {
                        continue;
                    }
                    let kind = if s.is_mut {
                        "static mut"
                    } else {
                        "interior-mutable static"
                    };
                    self.emit(
                        &mut out,
                        &mut seen,
                        fi,
                        s.line,
                        Rule::SharedState,
                        format!(
                            "{kind} `{}: {}` outside the executor crate; shared \
                             mutability belongs in cmap-exec where joins are \
                             index-ordered (or justify with a pragma)",
                            s.name, s.ty
                        ),
                    );
                }
            }

            for (fj, f) in file.model.fns.iter().enumerate() {
                if self.is_test_fn((fi, fj)) {
                    continue;
                }
                let wall = &self.wall_locals[fi][fj];
                let shared = &self.shared_locals[fi][fj];

                for (ci, c) in f.calls.iter().enumerate() {
                    let cands = self.cands((fi, fj), ci);

                    // R7a: deterministic scope must not call wall-clock
                    // tainted functions at all.
                    if det && !self.is_sanctioned(&c.callee) {
                        if let Some(&t) = cands
                            .iter()
                            .find(|&&t| self.summaries[t.0][t.1].taints_return)
                        {
                            self.emit(
                                &mut out,
                                &mut seen,
                                fi,
                                c.line,
                                Rule::DetTaint,
                                format!(
                                    "`{}` (defined at {}:{}) returns a wall-clock/\
                                     entropy-derived value; deterministic code must \
                                     take time from the simulated clock",
                                    c.callee,
                                    self.files[t.0].model.path,
                                    self.fn_model(t).line
                                ),
                            );
                        }
                    }

                    // R7b/R9b: tainted values into sinks (direct call).
                    if self.is_sink_name(&c.callee) {
                        for arg in c.args.iter().flatten() {
                            self.check_sink_arg(
                                &mut out, &mut seen, fi, c.line, &c.callee, arg, wall, shared,
                            );
                        }
                        if f.source_lines.contains(&c.line) {
                            self.emit(
                                &mut out,
                                &mut seen,
                                fi,
                                c.line,
                                Rule::DetTaint,
                                format!(
                                    "wall-clock expression passed directly to artifact \
                                     sink `{}`; only the sanctioned timing/profile \
                                     sections may carry wall time",
                                    c.callee
                                ),
                            );
                        }
                    }

                    // R7c/R9c: tainted values into a callee parameter that
                    // reaches a sink.
                    if !self.is_sanctioned(&c.callee) {
                        for (ak, arg) in c.args.iter().enumerate() {
                            let sinks = cands.iter().any(|&t| {
                                self.summaries[t.0][t.1]
                                    .param_sink
                                    .get(ak)
                                    .copied()
                                    .unwrap_or(false)
                            });
                            if !sinks {
                                continue;
                            }
                            for a in arg {
                                self.check_sink_arg(
                                    &mut out, &mut seen, fi, c.line, &c.callee, a, wall, shared,
                                );
                            }
                        }
                    }

                    // R10: hot path reaching a panic through a callee.
                    if hot {
                        for &t in cands {
                            if t == (fi, fj) || !self.summaries[t.0][t.1].may_panic {
                                continue;
                            }
                            // Callees inside hot scope get their own
                            // findings at their own boundary calls — unless
                            // they panic directly.
                            let callee_hot =
                                Config::matches(&self.cfg.hot_markers, &self.files[t.0].model.path);
                            if callee_hot && self.direct_panic(t).is_none() {
                                continue;
                            }
                            if let Some(chain) = self.panic_chain(t) {
                                self.emit(
                                    &mut out,
                                    &mut seen,
                                    fi,
                                    c.line,
                                    Rule::PanicReach,
                                    format!(
                                        "hot-path call can reach a panic: {chain}; \
                                         handle the case or document the invariant \
                                         in the callee with `.expect(\"...\")`",
                                    ),
                                );
                            }
                        }
                    }

                    // R8b: unit mismatch across the call boundary.
                    if det {
                        self.check_call_units(&mut out, &mut seen, fi, fj, c, cands);
                    }
                }

                // R7d/R9d: tainted values into sink struct literals.
                for l in &f.struct_lits {
                    if !self.is_sink_name(&l.name) {
                        continue;
                    }
                    if l.has_source {
                        self.emit(
                            &mut out,
                            &mut seen,
                            fi,
                            l.line,
                            Rule::DetTaint,
                            format!(
                                "wall-clock expression inside artifact sink literal \
                                 `{} {{ .. }}`; route wall time through the \
                                 sanctioned timing section instead",
                                l.name
                            ),
                        );
                    }
                    for i in &l.idents {
                        self.check_sink_arg(
                            &mut out, &mut seen, fi, l.line, &l.name, i, wall, shared,
                        );
                    }
                }

                // R8a: mixed-unit additive/comparison expressions.
                if det {
                    for b in &f.bin_ops {
                        self.check_bin_op(&mut out, &mut seen, fi, fj, b);
                    }
                    for c in &f.calls {
                        self.check_clamp_units(&mut out, &mut seen, fi, fj, c);
                    }
                }
            }
        }

        out.violations
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        out
    }

    /// One tainted identifier reaching a sink: emit under the right rule.
    #[allow(clippy::too_many_arguments, reason = "sink site plus both taint sets")]
    fn check_sink_arg(
        &self,
        out: &mut FlowOutput,
        seen: &mut BTreeSet<(usize, usize, Rule, String)>,
        fi: usize,
        line: usize,
        sink: &str,
        arg: &str,
        wall: &BTreeSet<String>,
        shared: &BTreeSet<String>,
    ) {
        let arg_fn_taints = |kind: fn(&Summary) -> bool| {
            self.resolve_name(arg)
                .iter()
                .any(|&t| kind(&self.summaries[t.0][t.1]))
        };
        if wall.contains(arg) || arg_fn_taints(|s| s.taints_return) {
            self.emit(
                out,
                seen,
                fi,
                line,
                Rule::DetTaint,
                format!(
                    "wall-clock/entropy-derived value `{arg}` flows into artifact \
                     sink `{sink}`; only the sanctioned timing/profile sections may \
                     carry wall time"
                ),
            );
        }
        if shared.contains(arg) || arg_fn_taints(|s| s.shared_return) {
            self.emit(
                out,
                seen,
                fi,
                line,
                Rule::SharedState,
                format!(
                    "shared-state-derived value `{arg}` reaches artifact bytes via \
                     `{sink}`; sum per-worker results in join order instead (or \
                     baseline with a reason if the artifact is non-deterministic by \
                     design)"
                ),
            );
        }
    }

    /// Unit of one recorded operand, given the enclosing function.
    fn operand_unit(&self, fi: usize, fj: usize, op: &Operand) -> Option<Unit> {
        match op.kind {
            OperandKind::Ident => {
                ident_unit(&op.name).or_else(|| self.unit_locals[fi][fj].get(&op.name).copied())
            }
            OperandKind::Call => self.name_ret_unit(&op.name),
        }
    }

    /// dBm ± dB is the one sanctioned mixed-unit additive form (link
    /// budgets); everything else must match.
    fn units_compatible(op: &str, a: Unit, b: Unit) -> bool {
        if a == b {
            return true;
        }
        matches!(op, "+" | "-") && matches!((a, b), (Unit::Dbm, Unit::Db) | (Unit::Db, Unit::Dbm))
    }

    fn check_bin_op(
        &self,
        out: &mut FlowOutput,
        seen: &mut BTreeSet<(usize, usize, Rule, String)>,
        fi: usize,
        fj: usize,
        b: &BinOp,
    ) {
        let (Some(lu), Some(ru)) = (
            self.operand_unit(fi, fj, &b.left),
            self.operand_unit(fi, fj, &b.right),
        ) else {
            return;
        };
        if Self::units_compatible(&b.op, lu, ru) {
            return;
        }
        self.emit(
            out,
            seen,
            fi,
            b.line,
            Rule::UnitFlow,
            format!(
                "mixed units in `{} {} {}`: left is {} but right is {}; convert \
                 through phy::units / sim::time first",
                b.left.name,
                b.op,
                b.right.name,
                lu.token(),
                ru.token()
            ),
        );
    }

    /// `a_ns.min(b_us)`-style receiver/argument unit mismatch.
    fn check_clamp_units(
        &self,
        out: &mut FlowOutput,
        seen: &mut BTreeSet<(usize, usize, Rule, String)>,
        fi: usize,
        fj: usize,
        c: &CallSite,
    ) {
        if !c.is_method || !CLAMP_METHODS.contains(&c.callee.as_str()) {
            return;
        }
        let Some(recv) = &c.receiver else { return };
        let Some(ru) = ident_unit(recv).or_else(|| self.unit_locals[fi][fj].get(recv).copied())
        else {
            return;
        };
        let [arg] = c.args.as_slice() else { return };
        let [a] = arg.as_slice() else { return };
        let Some(au) = ident_unit(a).or_else(|| self.unit_locals[fi][fj].get(a).copied()) else {
            return;
        };
        if Self::units_compatible("+", ru, au) {
            return;
        }
        self.emit(
            out,
            seen,
            fi,
            c.line,
            Rule::UnitFlow,
            format!(
                "`{recv}.{}({a})` mixes units: receiver is {} but argument is {}; \
                 convert through phy::units / sim::time first",
                c.callee,
                ru.token(),
                au.token()
            ),
        );
    }

    /// Unit mismatch between a single-unit argument and every resolved
    /// definition's parameter-name unit.
    fn check_call_units(
        &self,
        out: &mut FlowOutput,
        seen: &mut BTreeSet<(usize, usize, Rule, String)>,
        fi: usize,
        fj: usize,
        c: &CallSite,
        cands: &[FnRef],
    ) {
        if cands.is_empty() {
            return;
        }
        for (k, arg) in c.args.iter().enumerate() {
            let arg_units: BTreeSet<Unit> = arg
                .iter()
                .filter_map(|a| ident_unit(a).or_else(|| self.unit_locals[fi][fj].get(a).copied()))
                .collect();
            if arg_units.len() != 1 {
                continue;
            }
            let au = *arg_units.iter().next().expect("len 1");
            // Flag only when every candidate disagrees with the argument;
            // one agreeing overload means the resolution is too fuzzy.
            let param_units: Vec<Option<Unit>> = cands
                .iter()
                .map(|&t| {
                    self.fn_model(t)
                        .params
                        .get(k)
                        .and_then(|p| ident_unit(&p.name))
                })
                .collect();
            let all_known_mismatch = param_units
                .iter()
                .all(|pu| pu.is_some_and(|pu| !Self::units_compatible("+", au, pu)));
            if !all_known_mismatch {
                continue;
            }
            let pu = param_units[0].expect("all known");
            let t = cands[0];
            self.emit(
                out,
                seen,
                fi,
                c.line,
                Rule::UnitFlow,
                format!(
                    "argument {} of `{}` carries {} but the parameter `{}` (defined \
                     at {}:{}) expects {}; convert before the call",
                    k + 1,
                    c.callee,
                    au.token(),
                    self.fn_model(t).params[k].name,
                    self.files[t.0].model.path,
                    self.fn_model(t).line,
                    pu.token()
                ),
            );
        }
    }

    /// A witness chain from `start` to a function that panics directly:
    /// `a → b → c (panic! at path:line)`.
    fn panic_chain(&self, start: FnRef) -> Option<String> {
        let mut parent: BTreeMap<FnRef, FnRef> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([start]);
        let mut target: Option<(FnRef, usize, String)> = None;
        let mut visited: BTreeSet<FnRef> = BTreeSet::from([start]);
        'bfs: while let Some(r) = queue.pop_front() {
            if let Some((line, tok)) = self.direct_panic(r) {
                target = Some((r, line, tok));
                break 'bfs;
            }
            if parent_depth(&parent, r) >= 8 {
                continue;
            }
            for ci in 0..self.fn_model(r).calls.len() {
                for &t in self.cands(r, ci) {
                    if self.summaries[t.0][t.1].may_panic && visited.insert(t) {
                        parent.insert(t, r);
                        queue.push_back(t);
                    }
                }
            }
        }
        let (end, line, tok) = target?;
        let mut names = vec![format!(
            "`{}` ({} at {}:{})",
            self.fn_model(end).name,
            tok,
            self.files[end.0].model.path,
            line
        )];
        let mut cur = end;
        while let Some(&p) = parent.get(&cur) {
            names.push(format!("`{}`", self.fn_model(p).name));
            cur = p;
        }
        names.reverse();
        Some(names.join(" → "))
    }

    /// Emit one finding unless a pragma covers it; dedup by
    /// (file, line, rule, message).
    fn emit(
        &self,
        out: &mut FlowOutput,
        seen: &mut BTreeSet<(usize, usize, Rule, String)>,
        fi: usize,
        line: usize,
        rule: Rule,
        message: String,
    ) {
        if !seen.insert((fi, line, rule, message.clone())) {
            return;
        }
        let file = &self.files[fi];
        if let Some(pragma_line) = file.scan.allows(line, rule) {
            out.pragma_uses.push((fi, pragma_line, rule));
            return;
        }
        out.violations.push(Violation {
            path: file.model.path.clone(),
            line,
            rule,
            message,
            snippet: file
                .raw
                .get(line.saturating_sub(1))
                .map_or("", |s| s.trim())
                .to_string(),
            fix: None,
        });
    }
}

fn parent_depth(parent: &BTreeMap<FnRef, FnRef>, mut r: FnRef) -> usize {
    let mut d = 0;
    while let Some(&p) = parent.get(&r) {
        d += 1;
        r = p;
        if d > 16 {
            break;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build_model;
    use crate::scan_file;

    fn flow_one(path: &str, src: &str) -> Vec<Violation> {
        let cfg = Config::default();
        let model = build_model(path, src);
        let scan = scan_file(path, src, &cfg);
        let files = vec![FlowFile {
            model: &model,
            scan: &scan,
            raw: src.lines().collect(),
        }];
        run(&files, &cfg).violations
    }

    #[test]
    fn taint_through_helper_reaches_sink() {
        let src = "\
fn stamp_ns() -> u128 {
    let t0 = std::time::Instant::now();
    t0.elapsed().as_nanos()
}
fn report() {
    let t = stamp_ns();
    metric(\"wall\", t);
}
fn metric(_k: &str, _v: u128) {}
";
        let v = flow_one("crates/obs/src/fixture.rs", src);
        assert!(
            v.iter().any(|v| v.rule == Rule::DetTaint && v.line == 7),
            "{v:#?}"
        );
    }

    #[test]
    fn unit_mismatch_through_locals() {
        let src = "\
fn dur_us() -> u64 {
    5
}
fn f(t_ns: u64) -> u64 {
    let d = dur_us();
    t_ns + d
}
";
        let v = flow_one("crates/sim/src/fixture.rs", src);
        assert!(
            v.iter()
                .any(|v| v.rule == Rule::UnitFlow && v.message.contains("mixed units")),
            "{v:#?}"
        );
    }

    #[test]
    fn dbm_plus_db_is_sanctioned() {
        let src = "\
fn link(p_dbm: f64, loss_db: f64) -> f64 {
    p_dbm - loss_db
}
";
        let v = flow_one("crates/phy/src/fixture.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::UnitFlow), "{v:#?}");
    }

    #[test]
    fn panic_reach_through_callee() {
        let src = "\
fn lookup(v: &[u32], i: usize) -> u32 {
    *v.get(i).unwrap()
}
fn hot_loop(v: &[u32]) -> u32 {
    lookup(v, 0)
}
";
        // File outside hot scope defines lookup; simulate by two files.
        let cfg = Config::default();
        let helper_src = "fn lookup(v: &[u32], i: usize) -> u32 {\n    *v.get(i).unwrap()\n}\n";
        let hot_src = "fn hot_loop(v: &[u32]) -> u32 {\n    lookup(v, 0)\n}\n";
        let helper_model = build_model("crates/topo/src/fixture.rs", helper_src);
        let hot_model = build_model("crates/sim/src/fixture.rs", hot_src);
        let helper_scan = scan_file("crates/topo/src/fixture.rs", helper_src, &cfg);
        let hot_scan = scan_file("crates/sim/src/fixture.rs", hot_src, &cfg);
        let files = vec![
            FlowFile {
                model: &helper_model,
                scan: &helper_scan,
                raw: helper_src.lines().collect(),
            },
            FlowFile {
                model: &hot_model,
                scan: &hot_scan,
                raw: hot_src.lines().collect(),
            },
        ];
        let v = run(&files, &cfg).violations;
        assert!(
            v.iter().any(|v| v.rule == Rule::PanicReach
                && v.path.contains("sim")
                && v.message.contains("lookup")),
            "{v:#?}"
        );
        let _ = src;
    }

    #[test]
    fn shared_static_outside_exec_flagged() {
        let src = "\
static HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
fn totals() -> u64 {
    HITS.load(std::sync::atomic::Ordering::Relaxed)
}
fn report() {
    let h = totals();
    metric(\"hits\", h);
}
fn metric(_k: &str, _v: u64) {}
";
        let v = flow_one("crates/stats/src/fixture.rs", src);
        assert!(
            v.iter().any(|v| v.rule == Rule::SharedState && v.line == 1),
            "{v:#?}"
        );
        assert!(
            v.iter().any(|v| v.rule == Rule::SharedState && v.line == 7),
            "{v:#?}"
        );
    }
}
