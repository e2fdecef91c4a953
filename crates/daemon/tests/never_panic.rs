//! Byte-level suite for the two parsers a peer's bytes reach first:
//! `wire::decode_frame` and `sim::json::parse`. Seeded; a failure names
//! its case, and rerunning reproduces it.
//!
//! Whatever arrives, neither may panic, and `decode_frame` must account
//! for every byte: `Ok(None)` leaves the buffer as it was, `Oversized`
//! consumes nothing, and any other verdict consumes exactly the frame it
//! is about — `4 + len` bytes off the front — so the reactor can answer
//! `bad-frame` and carry on with the next one. (That well-formed values
//! survive a round trip is `sim::json`'s own property test.)

use mantle_daemon::json::{arbitrary, parse, Json};
use mantle_daemon::wire::{decode_frame, encode_frame, WireError, MAX_FRAME};
use mantle_sim::SimRng;

fn rng(label: &str) -> SimRng {
    SimRng::new(0xB17E5).stream(label)
}

/// Run `decode_frame` on a copy of `bytes` and hold it to the accounting
/// above.
fn decode_checked(bytes: &[u8], ctx: &str) -> Result<Option<Json>, WireError> {
    let mut buf = bytes.to_vec();
    let result = decode_frame(&mut buf);
    let consumed = bytes.len() - buf.len();
    assert_eq!(
        buf,
        bytes[consumed..],
        "{ctx}: the tail is not what was sent"
    );
    let announced = bytes
        .first_chunk::<4>()
        .map(|prefix| u32::from_be_bytes(*prefix) as usize);
    match (&result, announced) {
        (Ok(None), len) => {
            assert_eq!(consumed, 0, "{ctx}");
            let partial = |len| len <= MAX_FRAME && bytes.len() < 4 + len;
            assert!(len.is_none_or(partial), "{ctx}: {len:?}");
        }
        (Err(WireError::Oversized(n)), Some(len)) => {
            assert_eq!((consumed, *n), (0, len), "{ctx}");
            assert!(len > MAX_FRAME, "{ctx}: {len}");
        }
        (Ok(Some(_)) | Err(WireError::BadJson(_) | WireError::NotUtf8), Some(len)) => {
            assert_eq!(consumed, 4 + len, "{ctx}")
        }
        (verdict, None) => panic!("{ctx}: {verdict:?} from {} bytes", bytes.len()),
    }
    result
}

/// Bytes a JSON document is made of, and some it must not contain.
const JSONISH: &[u8] = b"{}[]\":,\\ue+-.0123456789 \n\ttfnalsr\x00\x1f\x7f\x80\xc3\xa9\xf0\xff";

fn random_bytes(rng: &mut SimRng, len: u64, jsonish: bool) -> Vec<u8> {
    (0..len)
        .map(|_| {
            if jsonish {
                JSONISH[rng.below(JSONISH.len() as u64) as usize]
            } else {
                rng.below(256) as u8
            }
        })
        .collect()
}

#[test]
fn decode_frame_accounts_for_arbitrary_bytes() {
    let mut rng = rng("decode-arbitrary");
    let mut verdicts = [0u32; 5];
    for case in 0..6_000 {
        let jsonish = rng.below(2) == 0;
        let mut bytes = Vec::new();
        // Half the cases announce a length near what follows, so payloads
        // reach the UTF-8 check and the parser; the rest are raw noise.
        if rng.below(2) == 0 {
            bytes.extend_from_slice(&(rng.below(48) as u32).to_be_bytes());
        }
        let n = rng.below(64);
        bytes.extend(random_bytes(&mut rng, n, jsonish));
        let verdict = match decode_checked(&bytes, &format!("case {case}")) {
            Ok(None) => 0,
            Ok(Some(_)) => 1,
            Err(WireError::BadJson(_)) => 2,
            Err(WireError::NotUtf8) => 3,
            Err(WireError::Oversized(_)) => 4,
        };
        verdicts[verdict] += 1;
    }
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "a verdict was never reached: {verdicts:?}"
    );
}

#[test]
fn decode_frame_accounts_for_damaged_frames() {
    let mut rng = rng("decode-damaged");
    for case in 0..1_500 {
        let frame = encode_frame(&arbitrary(&mut rng, 3));
        let len = frame.len() - 4;
        let ctx = |what: &str| format!("case {case}, {what}");
        let whole = decode_checked(&frame, &ctx("whole"));
        assert!(matches!(whole, Ok(Some(_))), "{}: {whole:?}", ctx("whole"));
        // One byte flipped, anywhere (prefix included).
        let mut flipped = frame.clone();
        flipped[rng.below(frame.len() as u64) as usize] ^= 1 << rng.below(8);
        let _ = decode_checked(&flipped, &ctx("one bit flipped"));
        // Cut short.
        let cut = rng.below(frame.len() as u64) as usize;
        let short = decode_checked(&frame[..cut], &ctx("truncated"));
        assert_eq!(short, Ok(None), "{}", ctx("truncated"));
        // The prefix alone perturbed: off by one either way, and around
        // the cap. Followed by the intact frame, so "too short" is real.
        let near = [len - 1, len + 1];
        let cap = [MAX_FRAME - 1, MAX_FRAME, MAX_FRAME + 1, u32::MAX as usize];
        for announced in near.into_iter().chain(cap) {
            let mut lied = frame.clone();
            lied[..4].copy_from_slice(&(announced as u32).to_be_bytes());
            lied.extend_from_slice(&frame);
            let verdict = decode_checked(&lied, &ctx(&format!("prefix says {announced}")));
            if announced > MAX_FRAME {
                assert!(matches!(verdict, Err(WireError::Oversized(_))), "{case}");
            }
        }
    }
}

#[test]
fn json_parse_survives_arbitrary_and_damaged_text() {
    const CHARS: &[char] = &[
        '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 'e', 'E', '+', '-', '.', '0', '1', '9', ' ',
        '\n', 't', 'r', 'f', 'n', 'a', 'l', 's', 'd', '8', '\u{0}', '\u{1f}', 'é', '\u{2028}',
        '😀',
    ];
    let mut rng = rng("json-damaged");
    let pick = |rng: &mut SimRng| CHARS[rng.below(CHARS.len() as u64) as usize];
    let mut parsed = 0;
    for case in 0..6_000 {
        let text: String = if case % 2 == 0 {
            (0..rng.below(48)).map(|_| pick(&mut rng)).collect()
        } else {
            // A well-formed document with one character dropped, replaced
            // or inserted, or cut off at a character boundary.
            let mut chars: Vec<char> = arbitrary(&mut rng, 3).to_string().chars().collect();
            let at = rng.below(chars.len() as u64) as usize;
            match rng.below(4) {
                0 => drop(chars.remove(at)),
                1 => chars[at] = pick(&mut rng),
                2 => chars.insert(at, pick(&mut rng)),
                _ => chars.truncate(at),
            }
            chars.into_iter().collect()
        };
        match parse(&text) {
            // Whatever was accepted is a value the encoder can write and
            // the parser reads back the same.
            Ok(v) => {
                parsed += 1;
                assert_eq!(
                    parse(&v.to_string()).as_ref(),
                    Ok(&v),
                    "case {case}: {text:?}"
                );
            }
            Err(e) => assert!(e.at <= text.len(), "case {case}: {text:?}: {e}"),
        }
    }
    assert!(parsed > 100, "only {parsed} documents survived the damage");
}
