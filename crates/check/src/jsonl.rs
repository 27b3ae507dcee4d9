//! Parser for the JSON Lines trace format `Trace::write_jsonl` emits.
//!
//! One flat JSON object per line, e.g.
//!
//! ```text
//! {"t_ns":1200,"rank":3,"partition":0,"round":1,"phase":"aggregation","op":"rma_put","bytes":512,"offset":2048,"peer":0}
//! ```
//!
//! `offset` and `peer` are optional (omitted at their sentinel
//! values).
//! The workspace is std-only, so this is a hand-rolled parser for
//! exactly this shape: flat objects, integer and plain-word string
//! values, no escapes or nesting. Unknown keys are ignored so the
//! format can grow without breaking old checkers.

use tapioca_trace::{Phase, Trace, TraceEvent, TraceOp, NO_OFFSET, NO_PEER};

/// Parse a whole JSONL document into a [`Trace`]. Blank lines are
/// skipped; any malformed line aborts with a diagnostic naming it.
pub fn parse_jsonl(input: &str) -> Result<Trace, String> {
    let mut events = Vec::new();
    for (ln, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(
            parse_line(line).map_err(|e| format!("line {}: {e} in {line:?}", ln + 1))?,
        );
    }
    Ok(Trace::from_events(events))
}

fn parse_line(line: &str) -> Result<TraceEvent, String> {
    let body = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected a {...} object")?;
    let mut t_ns = None;
    let mut rank = None;
    let mut partition = None;
    let mut round = None;
    let mut phase = None;
    let mut op = None;
    let mut bytes = None;
    let mut offset = NO_OFFSET;
    let mut peer = NO_PEER;
    for field in body.split(',') {
        let (key, value) = field.split_once(':').ok_or("expected \"key\":value")?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "t_ns" => t_ns = Some(parse_u64(value)?),
            "rank" => rank = Some(parse_u64(value)? as usize),
            "partition" => partition = Some(parse_u64(value)? as u32),
            "round" => round = Some(parse_u64(value)? as u32),
            "bytes" => bytes = Some(parse_u64(value)?),
            "offset" => offset = parse_u64(value)?,
            "peer" => peer = parse_u64(value)? as usize,
            "phase" => {
                phase = Some(match value.trim_matches('"') {
                    "aggregation" => Phase::Aggregation,
                    "io" => Phase::Io,
                    "sync" => Phase::Sync,
                    other => return Err(format!("unknown phase {other:?}")),
                })
            }
            "op" => {
                op = Some(match value.trim_matches('"') {
                    "rma_put" => TraceOp::RmaPut,
                    "flush" => TraceOp::Flush,
                    "post" => TraceOp::Post,
                    "start" => TraceOp::Start,
                    "complete" => TraceOp::Complete,
                    "wait" => TraceOp::Wait,
                    "elect" => TraceOp::Elect,
                    "crash" => TraceOp::Crash,
                    "reelect" => TraceOp::Reelect,
                    "retry" => TraceOp::Retry,
                    "degrade" => TraceOp::Degrade,
                    other => return Err(format!("unknown op {other:?}")),
                })
            }
            _ => {} // forward compatibility
        }
    }
    Ok(TraceEvent {
        t_ns: t_ns.ok_or("missing t_ns")?,
        rank: rank.ok_or("missing rank")?,
        partition: partition.ok_or("missing partition")?,
        round: round.ok_or("missing round")?,
        phase: phase.ok_or("missing phase")?,
        op: op.ok_or("missing op")?,
        bytes: bytes.ok_or("missing bytes")?,
        peer,
        offset,
    })
}

fn parse_u64(v: &str) -> Result<u64, String> {
    v.parse::<u64>().map_err(|_| format!("expected an unsigned integer, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_written_jsonl() {
        let t = Trace::from_events(vec![
            TraceEvent {
                t_ns: 5,
                rank: 1,
                partition: 0,
                round: 0,
                phase: Phase::Aggregation,
                op: TraceOp::RmaPut,
                bytes: 64,
                offset: 128,
                peer: 0,
            },
            TraceEvent {
                t_ns: 9,
                rank: 0,
                partition: 0,
                round: 0,
                phase: Phase::Io,
                op: TraceOp::Flush,
                bytes: 64,
                offset: 4096,
                peer: NO_PEER,
            },
            TraceEvent {
                t_ns: 12,
                rank: 0,
                partition: 0,
                round: 0,
                phase: Phase::Aggregation,
                op: TraceOp::Elect,
                bytes: 64,
                offset: NO_OFFSET,
                peer: 0,
            },
        ]);
        // One event of each synchronisation op, with and without a peer.
        let sync = [
            (TraceOp::Post, NO_PEER),
            (TraceOp::Start, 0),
            (TraceOp::Complete, 0),
            (TraceOp::Wait, NO_PEER),
        ];
        let mut events = t.events().to_vec();
        for (i, (op, peer)) in sync.into_iter().enumerate() {
            events.push(TraceEvent {
                t_ns: 20 + i as u64,
                rank: usize::from(peer != NO_PEER),
                partition: 2,
                round: 3,
                phase: Phase::Sync,
                op,
                bytes: 0,
                offset: NO_OFFSET,
                peer,
            });
        }
        let t = Trace::from_events(events);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let parsed = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let doc = "\n{\"t_ns\":1,\"rank\":0,\"partition\":0,\"round\":0,\
                   \"phase\":\"sync\",\"op\":\"post\",\"bytes\":0}\n\n";
        assert_eq!(parse_jsonl(doc).unwrap().len(), 1);
    }

    #[test]
    fn malformed_lines_name_the_line() {
        let err = parse_jsonl("{\"t_ns\":1}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_jsonl("not json").unwrap_err();
        assert!(err.contains("expected a"), "{err}");
        let err = parse_jsonl(
            "{\"t_ns\":1,\"rank\":0,\"partition\":0,\"round\":0,\
             \"phase\":\"warp\",\"op\":\"post\",\"bytes\":0}",
        )
        .unwrap_err();
        assert!(err.contains("unknown phase"), "{err}");
        // Window fences are not a trace event.
        let err = parse_jsonl(
            "{\"t_ns\":1,\"rank\":0,\"partition\":0,\"round\":0,\
             \"phase\":\"sync\",\"op\":\"fence\",\"bytes\":0}",
        )
        .unwrap_err();
        assert!(err.contains("unknown op \"fence\""), "{err}");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let doc = "{\"t_ns\":1,\"rank\":0,\"partition\":0,\"round\":0,\
                   \"phase\":\"sync\",\"op\":\"post\",\"bytes\":0,\"future\":7}";
        assert_eq!(parse_jsonl(doc).unwrap().len(), 1);
    }

    /// Older dumps carry a `coalesced` count on some puts. It is an
    /// unknown key now, so such a line loads as the same put without it.
    #[test]
    fn old_dumps_with_a_coalesced_count_still_load() {
        let put = "{\"t_ns\":5,\"rank\":1,\"partition\":0,\"round\":0,\
                   \"phase\":\"aggregation\",\"op\":\"rma_put\",\"bytes\":96,\
                   \"offset\":256,\"peer\":3";
        let old = parse_jsonl(&format!("{put},\"coalesced\":3}}")).unwrap();
        assert_eq!(old, parse_jsonl(&format!("{put}}}")).unwrap());
        assert_eq!((old.events()[0].bytes, old.events()[0].offset), (96, 256));
    }
}
