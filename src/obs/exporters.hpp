/// \file exporters.hpp
/// \brief Event-log and metrics serialization: JSONL, Chrome trace_event.
///
/// Three formats:
///
///  * JSONL — one event per line, integer microsecond timestamps,
///    deterministic number formatting. This is the golden-trace format:
///    two runs are behaviourally identical iff their JSONL exports are
///    byte-identical.
///
///      {"t_us":1000000,"kind":"bus_publish","src":"oxi1",
///       "detail":"vitals/oxi1/spo2","value":17}
///
///  * Chrome trace_event JSON — load in chrome://tracing or Perfetto for
///    a per-device timeline of the scenario.
///
///  * Metrics summary — MetricsRegistry::write_table / write_json (see
///    metrics.hpp).
///
/// Both writers build their text in one buffer, escaping each symbol
/// once rather than once per event. A record is the constant bytes of
/// its (kind, src, detail) triple with its time and value written
/// between and after them; each distinct triple's bytes are rendered
/// once per export into a table of fixed capacity (128 triples, 16 KiB),
/// and a triple that finds it full is rendered again for each of its
/// events into one reused scratch buffer.
///
/// read_jsonl parses exactly what write_jsonl emits (the round-trip is
/// exact), on one of two paths per line:
///
///  * direct — a line in write_jsonl's exact shape (its own field
///    literals in its order, strings without escapes or control bytes,
///    a known kind, a number or null, nothing after the '}') is split
///    into its t_us token, its (kind, src, detail) segment and its value
///    token. Each distinct segment is decoded once and then looked up
///    in a table of the same fixed capacity (a miss once it is full
///    decodes without inserting); numbers follow JsonReader's token
///    rule and from_chars, bit for bit;
///  * reader — any other line goes through JsonReader, which reads any
///    spelling of the same object or names what is wrong.
///
/// The direct path appends nothing to a line it gives up on, so
/// JsonReader stays the one general reader: the reference the direct
/// path is tested against, and the only source of error text.
/// validate_bench_json checks the `--json` report schema every bench
/// binary emits via benchio::JsonReporter.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "event_log.hpp"

namespace mcps::obs {

/// Write one event per line; byte-deterministic for a given log.
void write_jsonl(const EventLog& log, std::ostream& os);
/// The same bytes, appended to \p out.
void write_jsonl(const EventLog& log, std::string& out);

/// Parse a JSONL event stream produced by write_jsonl. Lines are read
/// in place and src/detail are interned straight from them. A line
/// spelled otherwise, but holding the same object, reads the same.
/// \throws std::runtime_error naming the offending line on malformed
/// input or unknown event kinds.
[[nodiscard]] EventLog read_jsonl(std::string_view text);
/// The same, reading the stream in 64 KiB chunks: beyond the log it
/// builds, it holds one chunk plus the line that chunk ends inside.
[[nodiscard]] EventLog read_jsonl(std::istream& is);

/// Write the Chrome trace_event ("chrome://tracing") representation:
/// one instant event per log entry, one timeline lane per source (lanes
/// numbered by first appearance), plus thread-name metadata records.
void write_chrome_trace(const EventLog& log, std::ostream& os);
/// The same bytes, appended to \p out.
void write_chrome_trace(const EventLog& log, std::string& out);

/// Validate a benchio::JsonReporter report: must be a JSON object with
/// a string "bench", an integer "seed" and a "metrics" array whose
/// entries each carry a string "name", a finite-or-null "value" and a
/// string "unit". Returns true on success; otherwise fills \p error.
[[nodiscard]] bool validate_bench_json(std::istream& is, std::string& error);

}  // namespace mcps::obs
