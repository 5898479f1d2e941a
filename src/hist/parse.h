// Parsing the paper's event notation.
//
// Round-trips History::to_string(): one event per line in the form
//   <insert(3),x,a>  <ok,x,a>  <commit,x,a>  <commit(5),x,b>
//   <abort,y,c>      <initiate(2),x,r>       <true,x,a>
// Blank lines and lines starting with '#' are ignored. Objects are
// x,y,z/objN; activities a..z/tN (the inverses of to_string(ObjectId) and
// to_string(ActivityId)).
//
// Multi-site dumps (dist/DistRuntime::merged_trace) stamp events with the
// recording site — "site1: <deposit(5),x,a>" — and interleave the sites'
// fault traces as '#'-comment lines (including site fail/recover events).
// The "siteN:" prefix is stripped: a cross-site dump parses to the same
// merged History the online checkers saw.
//
// Used by the check_history example so histories can be written in a
// file, classified, and compared against the paper by hand.
#pragma once

#include <optional>
#include <string>

#include "hist/history.h"

namespace argus {

struct ParseResult {
  std::optional<History> history;  // nullopt on error
  std::string error;               // first problem found
};

/// Parses one "<...>" event. Result values are interpreted as: "ok" ->
/// unit, "true"/"false" -> bool, integers -> int, anything else ->
/// string. A body with parentheses whose name is "commit"/"initiate" is a
/// timestamped commit/initiation; any other name is an invocation; a bare
/// body that is not commit/abort is a response value.
[[nodiscard]] ParseResult parse_event_line(const std::string& line);

/// Parses an object name: the inverse of to_string(ObjectId).
[[nodiscard]] std::optional<ObjectId> parse_object(const std::string& s);

/// Parses a whole multi-line history.
[[nodiscard]] ParseResult parse_history(const std::string& text);

}  // namespace argus
