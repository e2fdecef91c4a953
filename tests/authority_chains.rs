//! Interned authority chains against the upward walk.
//!
//! Every directory holds an index into the namespace's table of
//! distinct ancestor authority chains; `mkdir` copies the parent's
//! index and authority changes re-intern along their walk. Whatever the
//! history, each directory's chain must be what walking up from it says
//! (`support::walk_chain`).

use mantle::namespace::{MdsId, Namespace, NodeId, NsConfig, OpKind};
use mantle::sim::{SimRng, SimTime};

mod support;

#[test]
fn every_chain_equals_the_upward_walk() {
    let mut rng = SimRng::new(0x4D41_4E54_4C45).stream("authority-chains");
    let mut checked = 0;
    for case in 0..100 {
        let mut ns = Namespace::new(NsConfig {
            frag_split_threshold: 8,
            ..NsConfig::default()
        });
        let mut all: Vec<NodeId> = vec![ns.root()];
        for step in 0..80 {
            let d = all[rng.below(all.len() as u64) as usize];
            let m = rng.below(6) as MdsId;
            match rng.below(6) {
                0 | 1 => all.push(ns.mkdir(d, format!("d{step}"))),
                2 if d != ns.root() => ns.set_auth(d, [None, Some(m)][rng.below(2) as usize]),
                3 => {
                    let f = rng.below(ns.dir(d).frags.len() as u64) as usize;
                    ns.set_frag_auth(d, f, Some(m));
                }
                4 => {
                    ns.migrate_subtree(d, m);
                }
                _ => {
                    ns.record_op(d, OpKind::Create, SimTime::ZERO);
                }
            }
            for &d in &all {
                assert_eq!(
                    ns.ancestor_auth_chain(d),
                    support::walk_chain(&ns, d),
                    "case {case} step {step} dir {d:?}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100_000, "{checked} chains checked");
}
