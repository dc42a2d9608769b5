// pinsim-lint lexer: a flat token stream with 1-based line numbers.
//
// Comments and string/char literals are consumed (their contents never
// reach the rule passes), preprocessor directives are collapsed into
// one token per logical line. One comment-borne side channel is
// collected while lexing: `// pinsim-lint: allow(a, b)` suppressions,
// recorded into a per-line allow map (the line of the comment, plus the
// next line when the comment stands alone — the annotation-above form).
// Any other word after the marker is ignored, so prose that merely
// mentions "pinsim-lint:" cannot suppress anything by accident.
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
};

LexResult lex(std::string_view src);

}  // namespace pinsim::lint
