// pinsim-lint lexer: a flat token stream with 1-based line numbers.
//
// Comments and string/char literals are consumed (their contents never
// reach the rule passes), preprocessor directives are collapsed into
// one token per logical line. Two comment-borne side channels are
// collected while lexing:
//
//   * `// pinsim-lint: allow(a, b)` suppressions, recorded into a
//     per-line allow map (the line of the comment, plus the next line
//     when the comment stands alone — the annotation-above form).
//   * symbol annotations for the cross-file index: `hot` and
//     `shard-owner(<n>)`, recorded into a per-line
//     annotation map with the same attachment rules. Unknown words
//     after the marker are ignored so prose that merely mentions
//     "pinsim-lint:" cannot annotate code by accident.
//
// Line accounting is exact for the constructs that span physical
// lines: backslash-continued `//` comments cover every continued line
// (and an annotation-above form attaches past the last continuation),
// multi-line raw strings produce their token on the line the literal
// STARTS on, and code following the closer of a multi-line raw string
// or block comment still counts as code for the standalone-comment
// test.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace pinsim::lint {

struct Token {
  enum Kind { kIdent, kPunct, kNumber, kLiteral, kDirective };
  Kind kind;
  std::string text;
  int line;
};

struct LexResult {
  std::vector<Token> tokens;
  /// line -> rules allowed on that line ("all" allows everything).
  std::map<int, std::set<std::string>> allows;
  /// line -> index annotations attached to that line ("hot",
  /// "shard-owner(0)").
  std::map<int, std::set<std::string>> annotations;
};

LexResult lex(std::string_view src);

}  // namespace pinsim::lint
