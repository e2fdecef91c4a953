//! Dirfrag selectors — the `howmuch` policies of §3.2.
//!
//! Every time the balancer considers a list of dirfrags/subtrees in a
//! directory, it runs *all* configured selectors and keeps the one whose
//! shipped load lands closest to the target (the paper's worked example:
//! for loads {12.7, 13.3, 13.3, 14.6, 15.7, 13.5, 13.7, 14.6} and target
//! 55.6, `big_small` wins with distance 0.5).
//!
//! The four built-in strategies ([`DirfragSelector`]) are plain Rust and
//! live here. A policy may also ship *scripted* strategies
//! ([`ScriptedSelector`]): those are part of the policy — compiled once
//! with it, validated with it, run on the policy VM — so `mantle-policy`
//! defines them and this module only races the two kinds against each
//! other ([`SelectorKind`], [`select_best_of`]).

use std::convert::Infallible;
use std::fmt;

/// A named strategy for picking which load units to ship toward a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirfragSelector {
    /// Ship the biggest units until reaching the target (the original
    /// CephFS heuristic, Table 1's "how-much accuracy" row).
    BigFirst,
    /// Ship the smallest units until reaching the target.
    SmallFirst,
    /// Alternate big and small.
    BigSmall,
    /// Ship the first half of the units.
    Half,
}

impl DirfragSelector {
    /// Parse a selector name as used in `mds_bal_howmuch` lists.
    pub fn parse(name: &str) -> Option<DirfragSelector> {
        Some(match name {
            "big_first" | "big" => DirfragSelector::BigFirst,
            "small_first" | "small" => DirfragSelector::SmallFirst,
            "big_small" => DirfragSelector::BigSmall,
            "half" => DirfragSelector::Half,
            _ => return None,
        })
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            DirfragSelector::BigFirst => "big_first",
            DirfragSelector::SmallFirst => "small_first",
            DirfragSelector::BigSmall => "big_small",
            DirfragSelector::Half => "half",
        }
    }

    /// All built-in selectors.
    pub fn all() -> [DirfragSelector; 4] {
        [
            DirfragSelector::BigFirst,
            DirfragSelector::SmallFirst,
            DirfragSelector::BigSmall,
            DirfragSelector::Half,
        ]
    }

    /// Choose unit indices from `loads` aiming at `target` total load.
    ///
    /// Greedy selectors stop *before* overshooting unless nothing has been
    /// taken yet and the next unit alone overshoots; `half` ignores the
    /// target entirely (it exists for GIGA+-style uniform splitting).
    pub fn select(self, loads: &[f64], target: f64) -> Vec<usize> {
        if loads.is_empty() || target <= 0.0 && self != DirfragSelector::Half {
            return Vec::new();
        }
        match self {
            DirfragSelector::BigFirst => greedy(loads, target, Order::Desc),
            DirfragSelector::SmallFirst => greedy(loads, target, Order::Asc),
            DirfragSelector::BigSmall => alternate(loads, target),
            DirfragSelector::Half => {
                let n = loads.len() / 2;
                (0..n).collect()
            }
        }
    }
}

impl fmt::Display for DirfragSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

enum Order {
    Asc,
    Desc,
}

fn sorted_indices(loads: &[f64], order: Order) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..loads.len()).collect();
    match order {
        Order::Desc => idx.sort_by(|&a, &b| {
            loads[b]
                .partial_cmp(&loads[a])
                .expect("loads are never NaN")
                .then(a.cmp(&b))
        }),
        Order::Asc => idx.sort_by(|&a, &b| {
            loads[a]
                .partial_cmp(&loads[b])
                .expect("loads are never NaN")
                .then(a.cmp(&b))
        }),
    }
    idx
}

fn greedy(loads: &[f64], target: f64, order: Order) -> Vec<usize> {
    let mut out = Vec::new();
    let mut sent = 0.0;
    for i in sorted_indices(loads, order) {
        if sent >= target {
            break;
        }
        out.push(i);
        sent += loads[i];
    }
    out
}

fn alternate(loads: &[f64], target: f64) -> Vec<usize> {
    let desc = sorted_indices(loads, Order::Desc);
    let mut lo = 0usize;
    let mut hi = desc.len();
    let mut take_big = true;
    let mut out = Vec::new();
    let mut sent = 0.0;
    while lo < hi && sent < target {
        let i = if take_big {
            lo += 1;
            desc[lo - 1]
        } else {
            hi -= 1;
            desc[hi]
        };
        out.push(i);
        sent += loads[i];
        take_big = !take_big;
    }
    out
}

/// Run every selector and keep the one whose shipped load is closest to
/// `target` (§3.2). Returns `(winner, chosen indices, shipped load)`.
pub fn select_best(
    selectors: &[DirfragSelector],
    loads: &[f64],
    target: f64,
) -> (DirfragSelector, Vec<usize>, f64) {
    let runs = selectors
        .iter()
        .map(|s| Ok::<_, Infallible>(s.select(loads, target)));
    let Ok((winner, chosen, shipped)) = race(runs, loads, target);
    (selectors[winner], chosen, shipped)
}

/// The race of §3.2 over the selectors' `runs`, in order: the first one
/// whose shipped load is strictly closest to `target` wins, and a run
/// that errored drops out. Returns `(winner's index, chosen indices,
/// shipped load)`, or the last error if every run failed.
fn race<E>(
    runs: impl Iterator<Item = Result<Vec<usize>, E>>,
    loads: &[f64],
    target: f64,
) -> Result<(usize, Vec<usize>, f64), E> {
    let mut best: Option<(usize, Vec<usize>, f64, f64)> = None;
    let mut last_err = None;
    for (i, run) in runs.enumerate() {
        let chosen = match run {
            Ok(chosen) => chosen,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        let shipped: f64 = chosen.iter().map(|&j| loads[j]).sum();
        let dist = (shipped - target).abs();
        if best
            .as_ref()
            .is_none_or(|&(.., best_dist)| dist < best_dist)
        {
            best = Some((i, chosen, shipped, dist));
        }
    }
    match best {
        Some((winner, chosen, shipped, _)) => Ok((winner, chosen, shipped)),
        None => Err(last_err.expect("at least one selector required")),
    }
}

// ---------------------------------------------------------------------------
// Script-defined selectors (the §3.2 "external Lua file with a list of
// strategies", generalized so a policy can ship its own).
// ---------------------------------------------------------------------------

use std::rc::Rc;

use mantle_policy::PolicyResult;

/// A dirfrag selector written in the policy language: compiled once with
/// the policy that ships it, run on the bytecode VM, and dry-run by the
/// validator like any other hook — which is why it is defined in
/// `mantle-policy` and only re-exported here.
pub use mantle_policy::ScriptedSelector;

/// Either a built-in selector or a scripted one.
#[derive(Debug, Clone)]
pub enum SelectorKind {
    /// One of the four built-ins.
    Builtin(DirfragSelector),
    /// A policy-defined selector, shared with the compiled policy it
    /// belongs to.
    Scripted(Rc<ScriptedSelector>),
}

/// Built-ins compare by value, scripted selectors by identity: two are
/// equal when they are the same compilation.
impl PartialEq for SelectorKind {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SelectorKind::Builtin(a), SelectorKind::Builtin(b)) => a == b,
            (SelectorKind::Scripted(a), SelectorKind::Scripted(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl SelectorKind {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            SelectorKind::Builtin(b) => b.name(),
            SelectorKind::Scripted(s) => s.name(),
        }
    }

    /// Run the selector; built-ins cannot fail.
    pub fn select(&self, loads: &[f64], target: f64) -> PolicyResult<Vec<usize>> {
        match self {
            SelectorKind::Builtin(b) => Ok(b.select(loads, target)),
            SelectorKind::Scripted(s) => s.select(loads, target),
        }
    }
}

impl From<DirfragSelector> for SelectorKind {
    fn from(b: DirfragSelector) -> Self {
        SelectorKind::Builtin(b)
    }
}

/// [`select_best`] over mixed built-in and scripted selectors, returning
/// the winner's index in `selectors`. A scripted selector that errors is
/// skipped (and reported via the returned error only if *every* selector
/// fails).
pub fn select_best_of(
    selectors: &[SelectorKind],
    loads: &[f64],
    target: f64,
) -> PolicyResult<(usize, Vec<usize>, f64)> {
    let runs = selectors.iter().map(|s| s.select(loads, target));
    race(runs, loads, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantle_policy::PolicyError;

    /// The §2.2.3 worked example.
    const PAPER_LOADS: [f64; 8] = [12.7, 13.3, 13.3, 14.6, 15.7, 13.5, 13.7, 14.6];

    #[test]
    fn parse_round_trips() {
        for sel in DirfragSelector::all() {
            assert_eq!(DirfragSelector::parse(sel.name()), Some(sel));
        }
        assert_eq!(DirfragSelector::parse("nope"), None);
        assert_eq!(
            DirfragSelector::parse("small"),
            Some(DirfragSelector::SmallFirst)
        );
    }

    #[test]
    fn big_first_reproduces_paper_example() {
        // Target load: total/2 scaled by mds_bal_need_min=0.8:
        // total = 111.4, half = 55.7, ×0.8 = 44.56. The balancer shipped
        // 15.7 + 14.6 + 14.6 = 44.9 — only 3 dirfrags instead of half.
        let total: f64 = PAPER_LOADS.iter().sum();
        let target = total / 2.0 * 0.8;
        let chosen = DirfragSelector::BigFirst.select(&PAPER_LOADS, target);
        let shipped: f64 = chosen.iter().map(|&i| PAPER_LOADS[i]).sum();
        assert_eq!(chosen.len(), 3, "ships only 3 dirfrags");
        assert!((shipped - 44.9).abs() < 1e-9, "shipped {shipped}");
    }

    #[test]
    fn big_small_wins_on_paper_example() {
        // Against the unscaled target 55.7 big_small lands within ~0.5 of
        // the target (the paper reports 0.5; our alternation ships
        // 15.7+12.7+14.6+13.3 = 56.3, distance 0.6 — same winner) and
        // beats big_first (2.9), small_first (10.8) and half (1.8).
        let total: f64 = PAPER_LOADS.iter().sum();
        let target = total / 2.0;
        let (winner, _, shipped) = select_best(&DirfragSelector::all(), &PAPER_LOADS, target);
        assert_eq!(winner, DirfragSelector::BigSmall);
        assert!(
            (shipped - target).abs() <= 1.0,
            "distance {}",
            (shipped - target).abs()
        );
    }

    #[test]
    fn small_first_takes_smallest() {
        let loads = [5.0, 1.0, 3.0];
        let chosen = DirfragSelector::SmallFirst.select(&loads, 3.5);
        assert_eq!(chosen, vec![1, 2], "1 then 3 reaches 4 ≥ 3.5");
    }

    #[test]
    fn half_takes_first_half_regardless_of_target() {
        let loads = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(DirfragSelector::Half.select(&loads, 0.0), vec![0, 1]);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(DirfragSelector::Half.select(&odd, 100.0), vec![0]);
    }

    #[test]
    fn empty_loads_select_nothing() {
        for sel in DirfragSelector::all() {
            assert!(sel.select(&[], 10.0).is_empty());
        }
    }

    #[test]
    fn zero_target_ships_nothing_for_greedy() {
        assert!(DirfragSelector::BigFirst
            .select(&[1.0, 2.0], 0.0)
            .is_empty());
    }

    #[test]
    fn greedy_takes_one_even_if_overshooting() {
        let chosen = DirfragSelector::BigFirst.select(&[10.0], 1.0);
        assert_eq!(chosen, vec![0], "something must move when target > 0");
    }

    #[test]
    fn selection_indices_are_valid_and_unique() {
        for sel in DirfragSelector::all() {
            let chosen = sel.select(&PAPER_LOADS, 60.0);
            let mut seen = std::collections::HashSet::new();
            for &i in &chosen {
                assert!(i < PAPER_LOADS.len());
                assert!(seen.insert(i), "duplicate index from {sel}");
            }
        }
    }

    const EVERY_OTHER: &str = r#"
chosen = {}
sent = 0
for i = 1, #loads, 2 do
  if sent >= target then break end
  chosen[#chosen + 1] = i
  sent = sent + loads[i]
end
return chosen
"#;

    #[test]
    fn scripted_selector_runs() {
        let sel = ScriptedSelector::compile("every_other", EVERY_OTHER).unwrap();
        let loads = [10.0, 20.0, 30.0, 40.0, 50.0];
        let chosen = sel.select(&loads, 35.0).unwrap();
        assert_eq!(chosen, vec![0, 2], "indices 1,3 (1-based) → 0,2");
    }

    #[test]
    fn scripted_selector_via_chosen_global() {
        // Scripts may assign `chosen` instead of returning.
        let sel = ScriptedSelector::compile("first_one", "chosen = {} chosen[1] = 1").unwrap();
        assert_eq!(sel.select(&[5.0, 6.0], 100.0).unwrap(), vec![0]);
    }

    #[test]
    fn scripted_selector_rejects_bad_indices() {
        let oob = ScriptedSelector::compile("oob", "return {7}").unwrap();
        assert!(oob.select(&[1.0, 2.0], 1.0).is_err());
        let dup = ScriptedSelector::compile("dup", "return {1, 1}").unwrap();
        assert!(dup.select(&[1.0, 2.0], 1.0).is_err());
        let not_table = ScriptedSelector::compile("num", "return 3").unwrap();
        assert!(not_table.select(&[1.0, 2.0], 1.0).is_err());
    }

    #[test]
    fn scripted_selector_infinite_loop_is_bounded() {
        let evil = ScriptedSelector::compile("evil", "while true do end").unwrap();
        assert!(matches!(
            evil.select(&[1.0], 1.0),
            Err(PolicyError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn select_best_of_mixes_builtin_and_scripted() {
        let scripted = SelectorKind::Scripted(Rc::new(
            ScriptedSelector::compile("every_other", EVERY_OTHER).unwrap(),
        ));
        let kinds = vec![SelectorKind::Builtin(DirfragSelector::Half), scripted];
        let loads = [10.0, 20.0, 30.0, 40.0];
        // Target 40: half ships 10+20=30 (dist 10); every_other ships
        // 10+30=40 (dist 0) → scripted wins.
        let (winner, chosen, shipped) = select_best_of(&kinds, &loads, 40.0).unwrap();
        assert_eq!(kinds[winner].name(), "every_other");
        assert_eq!(chosen, vec![0, 2]);
        assert_eq!(shipped, 40.0);
    }

    #[test]
    fn select_best_of_skips_broken_scripted() {
        let broken = SelectorKind::Scripted(Rc::new(
            ScriptedSelector::compile("broken", "return {99}").unwrap(),
        ));
        let kinds = vec![broken, SelectorKind::Builtin(DirfragSelector::BigFirst)];
        let (winner, _, _) = select_best_of(&kinds, &[5.0, 1.0], 4.0).unwrap();
        assert_eq!(
            kinds[winner].name(),
            "big_first",
            "falls back to the working selector"
        );
        // All broken → the error surfaces.
        let only_broken = vec![SelectorKind::Scripted(Rc::new(
            ScriptedSelector::compile("broken", "return {99}").unwrap(),
        ))];
        assert!(select_best_of(&only_broken, &[5.0], 4.0).is_err());
    }

    #[test]
    fn equidistant_tie_goes_to_the_earlier_selector() {
        // loads {5, 1}, target 3: big_first, big_small, and half all ship
        // exactly {5} (distance 2); small_first ships {1, 5} = 6
        // (distance 3). `select_best` keeps a strictly better distance
        // only, so among equidistant candidates the earliest listed wins
        // — the configured order is the tie-break, as in CephFS where the
        // first howmuch strategy is the default.
        let loads = [5.0, 1.0];
        let target = 3.0;
        for sel in [
            DirfragSelector::BigFirst,
            DirfragSelector::BigSmall,
            DirfragSelector::Half,
        ] {
            assert_eq!(sel.select(&loads, target), vec![0], "{sel}");
        }
        assert_eq!(
            DirfragSelector::SmallFirst.select(&loads, target),
            vec![1, 0]
        );

        let (winner, _, shipped) = select_best(&DirfragSelector::all(), &loads, target);
        assert_eq!(winner, DirfragSelector::BigFirst, "first in `all()` wins");
        assert_eq!(shipped, 5.0);

        let (winner, _, _) = select_best(
            &[DirfragSelector::Half, DirfragSelector::BigFirst],
            &loads,
            target,
        );
        assert_eq!(winner, DirfragSelector::Half, "listed order decides ties");
        let (winner, _, _) = select_best(
            &[DirfragSelector::BigFirst, DirfragSelector::Half],
            &loads,
            target,
        );
        assert_eq!(winner, DirfragSelector::BigFirst);
    }

    #[test]
    fn all_zero_loads_with_positive_target_take_everything() {
        // Degenerate boundary: every unit ships zero load, so greedy
        // `sent >= target` never trips and the whole list is taken. The
        // balancer guards against this upstream (no exports when the
        // candidate load is zero), but the selector itself must stay
        // total: valid unique indices, no panic, no infinite loop.
        let loads = [0.0, 0.0, 0.0];
        assert_eq!(DirfragSelector::BigFirst.select(&loads, 1.0), vec![0, 1, 2]);
        assert_eq!(
            DirfragSelector::SmallFirst.select(&loads, 1.0),
            vec![0, 1, 2]
        );
        // big_small alternates head and tail of the descending order.
        assert_eq!(DirfragSelector::BigSmall.select(&loads, 1.0), vec![0, 2, 1]);
        assert_eq!(DirfragSelector::Half.select(&loads, 1.0), vec![0]);
    }

    #[test]
    fn zero_and_negative_targets_ship_nothing_except_half() {
        // The `when` side decides *whether* to migrate; by the time a
        // selector runs the target should be positive. At the boundary
        // (target ≤ 0) every greedy selector ships nothing, while `half`
        // ignores the target by design.
        let loads = [1.0, 2.0];
        for sel in [
            DirfragSelector::BigFirst,
            DirfragSelector::SmallFirst,
            DirfragSelector::BigSmall,
        ] {
            assert!(sel.select(&loads, 0.0).is_empty(), "{sel} at zero");
            assert!(sel.select(&loads, -4.0).is_empty(), "{sel} below zero");
        }
        assert_eq!(DirfragSelector::Half.select(&loads, 0.0), vec![0]);
        assert_eq!(DirfragSelector::Half.select(&loads, -4.0), vec![0]);
    }

    #[test]
    fn single_zero_unit_is_still_selected_by_greedy() {
        // One unit of zero load, positive target: greedy takes it (sent
        // stays 0 < target, one iteration) — the "something must move"
        // rule degenerates to shipping a weightless unit, never a panic.
        assert_eq!(DirfragSelector::BigFirst.select(&[0.0], 2.0), vec![0]);
        let (winner, chosen, shipped) = select_best(&DirfragSelector::all(), &[0.0], 2.0);
        assert_eq!(winner, DirfragSelector::BigFirst);
        assert_eq!(chosen, vec![0]);
        assert_eq!(shipped, 0.0);
    }

    #[test]
    fn select_best_prefers_closest() {
        // target tiny: small_first ships least.
        let loads = [10.0, 1.0, 8.0];
        let (winner, chosen, shipped) = select_best(&DirfragSelector::all(), &loads, 1.2);
        assert_eq!(winner, DirfragSelector::SmallFirst);
        assert_eq!(chosen, vec![1, 2]); // 1.0 then overshoot minimally? no:
                                        // 1.0 < 1.2 → takes 8.0 too = 9.0.
                                        // half ships 10.0 (first half).
                                        // big_first ships 10.0.
        assert!(shipped == 9.0 || shipped == 10.0);
    }
}
