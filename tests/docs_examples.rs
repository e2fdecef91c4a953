//! Every fenced code block in POLICY.md, PROTOCOL.md, and OPERATIONS.md
//! must parse and run.
//!
//! The reference documents promise that their examples are live: each
//! fence's info string names the machinery it belongs to. POLICY.md
//! fences name a hook environment (`lua`, `lua metaload`, `lua mdsload`,
//! `lua when`, `lua selector`, `lua howmany`) or a deliberately-invalid
//! example the validator must refuse (`lua reject`); those are built
//! into policy sets and pushed through [`PolicyValidator`] — the same
//! static-global check plus synthetic-cluster dry run that gates real
//! injection. PROTOCOL.md/OPERATIONS.md fences tagged `json frame` are
//! round-tripped through the real daemon codec
//! (`mantle_daemon::{json, wire}`), and `json policy-bundle` documents
//! go through the real hot-swap pipeline (`policy_source_from_json` →
//! `prepare`), with `reject` variants required to fail it. If the
//! language, the wire format, or a document drifts, this fails.

use mantle::mds::selector::ScriptedSelector;
use mantle::policy::env::{BalancerInputs, FragMetrics, MantleRuntime, MdsMetrics, PolicySet};
use mantle::policy::{prepare, HookEngine, PolicyValidator};
use mantle_daemon::engine::policy_source_from_json;
use mantle_daemon::json::{parse as parse_json, Json};
use mantle_daemon::wire::{decode_frame, encode_frame, op_kind, PROTO_VERSION};

const POLICY_MD: &str = include_str!("../POLICY.md");
const PROTOCOL_MD: &str = include_str!("../PROTOCOL.md");
const OPERATIONS_MD: &str = include_str!("../OPERATIONS.md");

/// Hooks that surround a snippet so the rest of the policy set is
/// trivially valid and the snippet under test is the only variable.
const METALOAD: &str = "IWR + IRD";
const MDSLOAD: &str = "MDSs[i][\"all\"]";
const NOOP_DECISION: &str = "x = 1";
const NOOP_WHERE: &str = "targets[1] = 0";

#[derive(Debug)]
struct Fence {
    /// The fence info string, e.g. `lua metaload`.
    tag: String,
    /// Snippet source.
    body: String,
    /// 1-based line of the opening fence, for failure messages.
    line: usize,
}

/// Extract every fenced code block, failing on unterminated fences.
fn fences_in(doc: &str, md: &str) -> Vec<Fence> {
    let mut out = Vec::new();
    let mut open: Option<(String, usize, Vec<&str>)> = None;
    for (idx, raw) in md.lines().enumerate() {
        let line = raw.trim_end();
        match &mut open {
            None => {
                if let Some(tag) = line.strip_prefix("```") {
                    open = Some((tag.trim().to_string(), idx + 1, Vec::new()));
                }
            }
            Some((tag, start, body)) => {
                if line == "```" {
                    out.push(Fence {
                        tag: std::mem::take(tag),
                        body: body.join("\n"),
                        line: *start,
                    });
                    open = None;
                } else {
                    body.push(raw);
                }
            }
        }
    }
    assert!(open.is_none(), "unterminated fence in {doc}");
    out
}

/// POLICY.md's fences (the original harness surface).
fn fences(md: &str) -> Vec<Fence> {
    fences_in("POLICY.md", md)
}

/// Belt and braces for one document: the extraction must have seen
/// every fence delimiter (an odd count would already have panicked).
fn assert_all_fences_seen(doc: &str, md: &str, extracted: usize) {
    let delimiters = md
        .lines()
        .filter(|l| l.trim_end().starts_with("```"))
        .count();
    assert_eq!(
        delimiters,
        extracted * 2,
        "{doc}: extraction missed a fence"
    );
}

/// Build the policy set a snippet belongs in, given its tag.
fn build(tag: &str, body: &str) -> Result<PolicySet, mantle::policy::PolicyError> {
    match tag {
        "lua" | "lua reject" => PolicySet::from_combined(METALOAD, MDSLOAD, body, &["half"]),
        "lua metaload" => PolicySet::from_combined(body, MDSLOAD, NOOP_DECISION, &["half"]),
        "lua mdsload" => PolicySet::from_combined(METALOAD, body, NOOP_DECISION, &["half"]),
        "lua when" => PolicySet::from_hooks(METALOAD, MDSLOAD, body, NOOP_WHERE, &["half"]),
        "lua howmany" => PolicySet::from_combined(METALOAD, MDSLOAD, NOOP_DECISION, &["half"])?
            .with_howmany(body),
        other => panic!("unknown fence tag `{other}` — document it and teach this harness"),
    }
}

#[test]
fn every_policy_md_fence_is_checked() {
    let all = fences(POLICY_MD);

    assert_all_fences_seen("POLICY.md", POLICY_MD, all.len());
    assert!(
        all.len() >= 15,
        "POLICY.md shrank to {} examples — the reference should stay comprehensive",
        all.len()
    );

    let validator = PolicyValidator::new();
    let mut seen_reject = 0;
    let mut seen_selector = 0;
    for fence in &all {
        let at = format!("POLICY.md:{} (`{}`)", fence.line, fence.tag);
        match fence.tag.as_str() {
            "lua selector" => {
                seen_selector += 1;
                let sel = ScriptedSelector::compile("doc-example", &fence.body)
                    .unwrap_or_else(|e| panic!("{at} does not compile: {e}"));
                let chosen = sel
                    .select(&[10.0, 20.0, 30.0, 40.0, 50.0], 35.0)
                    .unwrap_or_else(|e| panic!("{at} failed to select: {e}"));
                assert!(!chosen.is_empty(), "{at} selected nothing");
            }
            "lua reject" => {
                seen_reject += 1;
                // Reject examples must still *parse* — they demonstrate
                // validation, not syntax errors…
                let policy = build(&fence.tag, &fence.body).unwrap_or_else(|e| panic!("{at}: {e}"));
                // …and the validator must refuse them.
                assert!(
                    validator.validate(&policy).is_err(),
                    "{at} is documented as rejected but validated cleanly"
                );
            }
            _ => {
                let policy = build(&fence.tag, &fence.body).unwrap_or_else(|e| panic!("{at}: {e}"));
                validator
                    .validate(&policy)
                    .unwrap_or_else(|e| panic!("{at} failed validation: {e}"));
            }
        }
    }
    assert!(
        seen_reject >= 2,
        "the safety section lost its counterexamples"
    );
    assert!(
        seen_selector >= 1,
        "the howmuch section lost its scripted example"
    );
    assert!(
        all.iter().filter(|f| f.tag == "lua howmany").count() >= 2,
        "the howmany section lost its examples"
    );
}

/// Every runnable POLICY.md snippet produces bit-identical results on
/// both hook engines (tree walker, bytecode VM): same
/// metaload (`f64::to_bits`), same decision, same targets — or the same
/// error. This is the documentation-level arm of the engine-equivalence
/// guarantee POLICY.md states.
#[test]
fn every_policy_md_snippet_agrees_across_engines() {
    let inputs = BalancerInputs {
        whoami: 0,
        mds: vec![
            MdsMetrics {
                auth: 90.0,
                all: 95.0,
                cpu: 85.0,
                mem: 40.0,
                q: 12.0,
                req: 700.0,
                cache_hits: 1400.0,
                cache_misses: 210.0,
            },
            MdsMetrics {
                auth: 5.0,
                all: 6.5,
                cpu: 10.0,
                mem: 20.0,
                q: 0.0,
                req: 50.0,
                cache_hits: 90.0,
                cache_misses: 12.0,
            },
            MdsMetrics {
                auth: 35.0,
                all: 35.0,
                cpu: 55.0,
                mem: 30.0,
                q: 3.0,
                req: 300.0,
                cache_hits: 550.0,
                cache_misses: 75.0,
            },
        ],
        auth_metaload: 90.0,
        all_metaload: 95.0,
    };
    let frag = FragMetrics {
        ird: 0.137,
        iwr: 12.75,
        readdir: 1.0 / 3.0,
        fetch: 9e3,
        store: 0.001,
    };

    let mut checked = 0;
    for fence in fences(POLICY_MD) {
        if matches!(fence.tag.as_str(), "lua selector" | "lua reject") {
            continue;
        }
        let at = format!("POLICY.md:{} (`{}`)", fence.line, fence.tag);
        let policy = build(&fence.tag, &fence.body).unwrap_or_else(|e| panic!("{at}: {e}"));
        let runs: Vec<_> = [HookEngine::Tree, HookEngine::Bytecode]
            .into_iter()
            .map(|e| {
                let rt = MantleRuntime::new(policy.clone()).with_engine(e);
                (
                    e,
                    rt.eval_metaload(0, &frag),
                    rt.decide(&inputs),
                    rt.eval_howmany(&inputs, 2, 1, 3),
                )
            })
            .collect();
        for w in runs.windows(2) {
            let (ea, ml_a, d_a, hm_a) = &w[0];
            let (eb, ml_b, d_b, hm_b) = &w[1];
            match (hm_a, hm_b) {
                (Ok(x), Ok(y)) => assert_eq!(
                    x.map(f64::to_bits),
                    y.map(f64::to_bits),
                    "{at}: howmany diverged {ea:?}={x:?} vs {eb:?}={y:?}"
                ),
                (Err(x), Err(y)) => assert_eq!(x, y, "{at}: howmany errors diverged"),
                _ => panic!("{at}: {ea:?} and {eb:?} disagree on howmany erroring"),
            }
            match (ml_a, ml_b) {
                (Ok(x), Ok(y)) => assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{at}: metaload diverged {ea:?}={x} vs {eb:?}={y}"
                ),
                (Err(x), Err(y)) => assert_eq!(x, y, "{at}: metaload errors diverged"),
                _ => panic!("{at}: {ea:?} and {eb:?} disagree on metaload erroring"),
            }
            match (d_a, d_b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x, y, "{at}: decision diverged between {ea:?} and {eb:?}");
                    for (tx, ty) in x.targets.iter().zip(&y.targets) {
                        assert_eq!(tx.to_bits(), ty.to_bits(), "{at}: targets diverged");
                    }
                }
                (Err(x), Err(y)) => assert_eq!(x, y, "{at}: decision errors diverged"),
                _ => panic!("{at}: {ea:?} and {eb:?} disagree on decide erroring"),
            }
        }
        checked += 1;
    }
    assert!(
        checked >= 10,
        "only {checked} snippets cross-checked — POLICY.md shrank?"
    );
}

/// The document's claims about specific outcomes, pinned: the worked
/// selector example really does choose every other unit.
#[test]
fn selector_example_behaves_as_documented() {
    let snippet = fences(POLICY_MD)
        .into_iter()
        .find(|f| f.tag == "lua selector")
        .expect("POLICY.md documents a scripted selector");
    let sel = ScriptedSelector::compile("every_other", &snippet.body).unwrap();
    let chosen = sel.select(&[10.0, 20.0, 30.0, 40.0, 50.0], 35.0).unwrap();
    assert_eq!(chosen, vec![0, 2], "indices 1,3 (1-based) → 0,2");
}

/// Check one daemon document's fences: `json frame` examples round-trip
/// through the real codec, `json policy-bundle` documents compile and
/// validate through the real hot-swap pipeline (and `reject` variants
/// fail it), prose fences (`text`, `console`) are prose. Returns
/// (frames, bundles, rejects) counts for the per-document floors.
fn check_daemon_doc(doc: &str, md: &str) -> (usize, usize, usize) {
    let all = fences_in(doc, md);
    assert_all_fences_seen(doc, md, all.len());
    let (mut frames, mut bundles, mut rejects) = (0, 0, 0);
    for fence in &all {
        let at = format!("{doc}:{} (`{}`)", fence.line, fence.tag);
        match fence.tag.as_str() {
            "json frame" => {
                frames += 1;
                let msg = parse_json(&fence.body)
                    .unwrap_or_else(|e| panic!("{at} is not valid JSON: {e}"));
                assert!(
                    matches!(msg, Json::Obj(_)),
                    "{at}: frames carry exactly one JSON object"
                );
                // Encode: 4-byte big-endian length prefix + canonical
                // payload, within the frame bound.
                let encoded = encode_frame(&msg);
                let payload = &encoded[4..];
                assert_eq!(
                    u32::from_be_bytes(encoded[..4].try_into().unwrap()) as usize,
                    payload.len(),
                    "{at}: length prefix"
                );
                // Decode from a live buffer: one message out, buffer
                // drained, and the round trip is canonical-identical.
                let mut buf = encoded.clone();
                let decoded = decode_frame(&mut buf)
                    .unwrap_or_else(|e| panic!("{at} failed to decode: {e}"))
                    .unwrap_or_else(|| panic!("{at}: decoder wanted more bytes"));
                assert!(buf.is_empty(), "{at}: decoder left residue");
                assert_eq!(decoded.to_string(), msg.to_string(), "{at}: round trip");
                // Schema spot-checks the codec cannot see.
                match msg.get_str("type") {
                    Some("op") => {
                        let name = msg.get_str("op").expect("op frames name an op");
                        assert!(op_kind(name).is_some(), "{at}: unknown op kind `{name}`");
                    }
                    Some("hello") | Some("welcome") => {
                        assert_eq!(msg.get_u64("proto"), Some(PROTO_VERSION), "{at}: proto");
                    }
                    Some("error") => {
                        assert!(msg.get_str("code").is_some(), "{at}: errors carry a code");
                    }
                    _ => {}
                }
            }
            "json policy-bundle" => {
                bundles += 1;
                let bundle = parse_json(&fence.body)
                    .unwrap_or_else(|e| panic!("{at} is not valid JSON: {e}"));
                let src = policy_source_from_json(&bundle)
                    .unwrap_or_else(|e| panic!("{at} is not a valid bundle: {e}"));
                prepare(&src).unwrap_or_else(|e| panic!("{at} failed the install pipeline: {e}"));
            }
            "json policy-bundle reject" => {
                rejects += 1;
                // Reject bundles are well-formed JSON with a valid shape —
                // they demonstrate *validation* refusing the hooks.
                let bundle = parse_json(&fence.body)
                    .unwrap_or_else(|e| panic!("{at} is not valid JSON: {e}"));
                let src = policy_source_from_json(&bundle)
                    .unwrap_or_else(|e| panic!("{at} is not a valid bundle: {e}"));
                assert!(
                    prepare(&src).is_err(),
                    "{at} is documented as rejected but installed cleanly"
                );
            }
            "text" | "console" => {}
            other => panic!("{at}: unknown fence tag `{other}` — teach this harness"),
        }
    }
    (frames, bundles, rejects)
}

/// Every framed-message example in PROTOCOL.md round-trips through the
/// real codec, and its policy bundle installs through the real pipeline.
#[test]
fn every_protocol_md_frame_round_trips() {
    let (frames, bundles, _) = check_daemon_doc("PROTOCOL.md", PROTOCOL_MD);
    assert!(
        frames >= 15,
        "PROTOCOL.md shrank to {frames} frame examples — every message shape should stay illustrated"
    );
    assert!(
        bundles >= 1,
        "PROTOCOL.md lost its standalone bundle example"
    );
    // The op-kind table must cover the whole wire vocabulary, spelled
    // exactly as the codec spells it.
    for name in [
        "create", "stat", "setattr", "readdir", "open", "unlink", "mkdir",
    ] {
        assert!(op_kind(name).is_some(), "`{name}` fell out of the codec");
        assert!(
            PROTOCOL_MD.contains(&format!("`{name}`")),
            "PROTOCOL.md op table lost `{name}`"
        );
    }
}

/// The runbook's bundle walkthrough is live too: the good bundle
/// installs, the broken one is refused before anything is published.
#[test]
fn operations_md_walkthrough_is_live() {
    let (_, bundles, rejects) = check_daemon_doc("OPERATIONS.md", OPERATIONS_MD);
    assert!(
        bundles >= 1,
        "OPERATIONS.md lost its swap walkthrough bundle"
    );
    assert!(
        rejects >= 1,
        "OPERATIONS.md lost its rejected-bundle example"
    );
}
