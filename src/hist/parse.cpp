#include "hist/parse.h"

#include <cctype>
#include <sstream>
#include <vector>

namespace argus {

namespace {

ParseResult fail(const std::string& message) { return {std::nullopt, message}; }

bool parse_int(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i])) == 0) return false;
  }
  out = std::stoll(s);
  return true;
}

Value parse_value(const std::string& s) {
  if (s == "ok") return ok();
  if (s == "true") return Value{true};
  if (s == "false") return Value{false};
  std::int64_t n = 0;
  if (parse_int(s, n)) return Value{n};
  return Value{s};
}

std::optional<ActivityId> parse_activity(const std::string& s) {
  if (s.size() == 1 && s[0] >= 'a' && s[0] <= 'z') {
    return ActivityId{static_cast<std::uint64_t>(s[0] - 'a')};
  }
  if (s.size() > 1 && s[0] == 't') {
    std::int64_t n = 0;
    if (parse_int(s.substr(1), n) && n >= 0) {
      return ActivityId{static_cast<std::uint64_t>(n)};
    }
  }
  return std::nullopt;
}

/// Splits the event body on top-level commas (arguments inside
/// parentheses are protected).
std::vector<std::string> split_top_level(const std::string& body) {
  std::vector<std::string> parts;
  std::string current;
  int depth = 0;
  for (char c : body) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::optional<ObjectId> parse_object(const std::string& s) {
  if (s.size() == 1 && s[0] >= 'x' && s[0] <= 'z') {
    return ObjectId{static_cast<std::uint64_t>(s[0] - 'x')};
  }
  if (s.size() > 3 && s.substr(0, 3) == "obj") {
    std::int64_t n = 0;
    if (parse_int(s.substr(3), n) && n >= 0) {
      return ObjectId{static_cast<std::uint64_t>(n)};
    }
  }
  return std::nullopt;
}

ParseResult parse_event_line(const std::string& raw) {
  std::string line = trim(raw);
  // Multi-site dumps stamp each event with the site that recorded it
  // ("site2: <deposit(5),x,a>"). The stamp is provenance, not part of
  // the event — strip it so cross-site dumps replay through the same
  // offline checkers as single-node ones.
  if (line.size() > 4 && line.compare(0, 4, "site") == 0) {
    std::size_t i = 4;
    while (i < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
      ++i;
    }
    if (i > 4 && i < line.size() && line[i] == ':') {
      line = trim(line.substr(i + 1));
    }
  }
  if (line.size() < 2 || line.front() != '<' || line.back() != '>') {
    return fail("event must be enclosed in <...>: " + line);
  }
  const std::string body = line.substr(1, line.size() - 2);
  const auto parts = split_top_level(body);
  if (parts.size() != 3) {
    return fail("event needs three comma-separated fields: " + line);
  }
  const std::string head = trim(parts[0]);
  const auto object = parse_object(trim(parts[1]));
  const auto activity = parse_activity(trim(parts[2]));
  if (!object) return fail("bad object name in: " + line);
  if (!activity) return fail("bad activity name in: " + line);

  History h;
  const auto lparen = head.find('(');
  if (lparen != std::string::npos) {
    if (head.back() != ')') return fail("unbalanced parentheses in: " + line);
    const std::string name = head.substr(0, lparen);
    const std::string args_text =
        head.substr(lparen + 1, head.size() - lparen - 2);
    if (name == "commit" || name == "initiate") {
      std::int64_t ts = 0;
      if (!parse_int(trim(args_text), ts) || ts <= 0) {
        return fail("bad timestamp in: " + line);
      }
      h.append(name == "commit"
                   ? commit_at(*object, *activity,
                               static_cast<Timestamp>(ts))
                   : initiate(*object, *activity, static_cast<Timestamp>(ts)));
      return {h, ""};
    }
    Operation o;
    o.name = name;
    if (!trim(args_text).empty()) {
      for (const std::string& arg : split_top_level(args_text)) {
        o.args.push_back(parse_value(trim(arg)));
      }
    }
    h.append(invoke(*object, *activity, std::move(o)));
    return {h, ""};
  }

  if (head == "commit") {
    h.append(commit(*object, *activity));
    return {h, ""};
  }
  if (head == "abort") {
    h.append(abort(*object, *activity));
    return {h, ""};
  }
  // Bare identifiers that look like results ("ok", "true", numbers,
  // strings) are responses. Argument-less invocations are textually
  // ambiguous with string responses, so the zero-argument operations of
  // the built-in ADTs are recognized by name (matching the paper's
  // "<dequeue,x,c>" notation); an explicit "name()" works for any other.
  static const char* kZeroArgOps[] = {"dequeue", "size",   "balance",
                                      "increment", "remove", "read"};
  for (const char* name : kZeroArgOps) {
    if (head == name) {
      h.append(invoke(*object, *activity, Operation{head, {}}));
      return {h, ""};
    }
  }
  if (head.size() > 2 && head.substr(head.size() - 2) == "()") {
    h.append(invoke(*object, *activity,
                    Operation{head.substr(0, head.size() - 2), {}}));
    return {h, ""};
  }
  h.append(respond(*object, *activity, parse_value(head)));
  return {h, ""};
}

ParseResult parse_history(const std::string& text) {
  History h;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto one = parse_event_line(trimmed);
    if (!one.history) {
      return fail("line " + std::to_string(line_number) + ": " + one.error);
    }
    h.append(one.history->at(0));
  }
  return {h, ""};
}

}  // namespace argus
