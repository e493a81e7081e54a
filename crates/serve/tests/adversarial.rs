//! Adversarial input tests for the serve frontend: hostile request lines
//! must produce exactly one parseable error response each — never a panic,
//! a hang, or a dropped connection loop.
//!
//! The limits these tests pin down:
//!
//! * `stencil_serve::json::MAX_DEPTH` (128): container nesting beyond it is
//!   rejected without recursing further, so one line cannot overflow the
//!   stack (the recursive parser's frames are bounded).
//! * [`stencil_serve::server::MAX_LINE_BYTES`] (4 MiB): longer lines are
//!   answered with one error response and discarded byte-by-byte, so one
//!   unterminated line cannot balloon the server's memory.
//! * [`stencil_serve::json::MAX_COMPACT_ENTRIES`] (2^28): a compact string
//!   cannot make the decoder allocate an unbounded table.
//! * [`stencil_serve::protocol::MAX_GRID_VOLUME`] (2^24): a 40-byte request
//!   cannot ask the engine to materialise a multi-gigabyte grid, and the
//!   dims product is checked so it cannot overflow either.
//! * Invalid UTF-8 is detected at the framing layer and answered with an
//!   error response; the stream keeps serving.

use stencil_serve::json::Value;
use stencil_serve::server::{serve_io, MAX_LINE_BYTES};
use stencil_serve::service::{MappingService, ServiceConfig};

fn service() -> MappingService {
    MappingService::new(&ServiceConfig::default())
}

/// Every line of `input` (as raw bytes) must yield exactly one response
/// line, each one a parseable JSON object with a `status` field.
fn assert_one_parseable_response_per_line(input: &[u8], lines_in: usize) -> Vec<String> {
    let s = service();
    let mut out = Vec::new();
    serve_io(&s, input, &mut out).expect("serve_io must not fail on hostile input");
    let text = String::from_utf8(out).expect("responses are valid UTF-8");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), lines_in, "one response per request line");
    for line in &lines {
        let v = Value::parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"));
        assert!(
            v.get("status").is_some(),
            "response without status: {line:?}"
        );
    }
    lines
}

#[test]
fn truncations_of_a_valid_request_never_panic() {
    let full = r#"{"id":1,"dims":[6,4],"nodes":4,"stencil":[[1,0],[-1,0]],"algorithm":"viem","seed":7,"max_jsum":100,"on_over_budget":"fallback","encoding":"compact","query":"new_rank_of","ranks":[0,1]}"#;
    let s = service();
    for cut in 1..full.len() {
        let prefix = &full[..cut];
        let response = s.handle_line(prefix);
        let v = Value::parse(&response)
            .unwrap_or_else(|e| panic!("cut {cut}: unparseable response {response:?}: {e}"));
        assert!(v.get("status").is_some(), "cut {cut}: {response}");
    }
}

#[test]
fn deep_nesting_is_rejected_not_recursed() {
    let s = service();
    for hostile in [
        "[".repeat(200_000),
        "{\"a\":".repeat(200_000),
        format!("{}1{}", "[".repeat(129), "]".repeat(129)),
        format!(r#"{{"batch":{}1{}}}"#, "[".repeat(200), "]".repeat(200)),
        format!(r#"{{"dims":{}}}"#, "[".repeat(100_000)),
    ] {
        let response = s.handle_line(&hostile);
        let v = Value::parse(&response).expect("parseable error response");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    }
    // nesting at the protocol's actual depth still parses
    let fine = format!("{}1{}", "[".repeat(100), "]".repeat(100));
    assert!(Value::parse(&fine).is_ok());
}

#[test]
fn hostile_numbers_and_values_error_cleanly() {
    let s = service();
    for line in [
        r#"{"dims":[1e999,4],"nodes":4}"#,
        r#"{"dims":[99999999999999999999999,4],"nodes":4}"#,
        r#"{"dims":[6.5,4],"nodes":4}"#,
        r#"{"dims":[-6,4],"nodes":4}"#,
        r#"{"dims":[6,4],"nodes":4,"seed":-1}"#,
        r#"{"dims":[6,4],"nodes":0}"#,
        r#"{"dims":[],"nodes":1}"#,
        r#"{"dims":[6,4],"node_sizes":[99999999999999,1]}"#,
        // a tiny line must not buy a gigantic computation …
        r#"{"dims":[65536,65536],"nodes":4}"#,
        // … and the dims product must not overflow usize
        r#"{"dims":[4294967296,4294967296,4294967296],"nodes":4}"#,
        // an allocation is checked against the grid before any per-node
        // vector exists, and nodes × procs_per_node must not overflow
        r#"{"dims":[6,4],"nodes":1000000000000,"procs_per_node":1}"#,
        r#"{"dims":[6,4],"nodes":1048576,"procs_per_node":17592186044416}"#,
        r#"{"dims":[6,4],"nodes":4,"stencil":[[1,0,0]]}"#,
        r#"{"batch":{"not":"an array"}}"#,
        r#"{"dims":[6,4],"nodes":4,"ranks":[0]}"#,
        "null",
        "true",
        "\"just a string\"",
        "[1,2,3]",
    ] {
        let response = s.handle_line(line);
        let v = Value::parse(&response)
            .unwrap_or_else(|e| panic!("{line}: unparseable response {response:?}: {e}"));
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("error"),
            "{line} -> {response}"
        );
    }
}

#[test]
fn numbers_and_escapes_outside_rfc_8259_are_invalid_json() {
    let s = service();
    for line in [
        // a `\u` escape is exactly four hex digits: no sign
        r#"{"id":"\u+041","dims":[6,4],"nodes":4}"#,
        // leading zeros, a bare '.', a missing integer part
        r#"{"dims":[04,4],"nodes":4}"#,
        r#"{"dims":[4.,6],"nodes":4}"#,
        r#"{"dims":[6,4],"nodes":4,"seed":1.e5}"#,
        r#"{"dims":[6,4],"nodes":4,"max_jsum":-.5}"#,
    ] {
        let response = s.handle_line(line);
        let v = Value::parse(&response)
            .unwrap_or_else(|e| panic!("{line}: unparseable response {response:?}: {e}"));
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("error"),
            "{line}"
        );
        let error = v.get("error").and_then(Value::as_str).unwrap();
        assert!(error.starts_with("invalid JSON: "), "{line} -> {response}");
    }
}

#[test]
fn invalid_utf8_lines_get_an_error_response_and_the_stream_continues() {
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(b"\xff\xfe\x80bad\n");
    input.extend_from_slice(b"{\"id\":2,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n");
    let lines = assert_one_parseable_response_per_line(&input, 2);
    assert!(lines[0].contains("not valid UTF-8"), "{}", lines[0]);
    assert!(lines[1].contains("\"status\":\"ok\""), "{}", lines[1]);
}

#[test]
fn overlong_lines_are_discarded_without_ballooning_memory() {
    // a line just over the limit, then a healthy request
    let mut input: Vec<u8> = Vec::with_capacity(MAX_LINE_BYTES + 64);
    input.extend_from_slice(b"{\"dims\":[");
    input.resize(MAX_LINE_BYTES + 1, b'1');
    input.push(b'\n');
    input.extend_from_slice(b"{\"id\":2,\"dims\":[4,4],\"nodes\":4,\"want_mapping\":false}\n");
    let lines = assert_one_parseable_response_per_line(&input, 2);
    assert!(lines[0].contains("exceeds"), "{}", lines[0]);
    assert!(lines[1].contains("\"status\":\"ok\""), "{}", lines[1]);
}

#[test]
fn hostile_compact_strings_are_rejected_by_the_decoder() {
    use stencil_serve::json::decode_nodes_compact;
    // a 12-byte string cannot be allowed to declare 2^60 entries
    for hostile in ["/////////w==", "gICAgICAgICAgAE=", "AAAA", "!!!!"] {
        assert!(decode_nodes_compact(hostile).is_err(), "{hostile}");
    }
    const _: () = assert!(stencil_serve::json::MAX_COMPACT_ENTRIES <= 1 << 28);
}

#[test]
fn a_flood_of_blank_and_comment_free_lines_is_cheap() {
    // 10k empty lines: no responses, no panic (bounded by the line loop)
    let input = "\n".repeat(10_000);
    let s = service();
    let mut out = Vec::new();
    serve_io(&s, input.as_bytes(), &mut out).unwrap();
    assert!(out.is_empty());
}
