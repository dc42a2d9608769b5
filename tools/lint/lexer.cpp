#include "lexer.hpp"

#include <cctype>

namespace pinsim::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool mark_word_char(char c) { return ident_char(c) || c == '-'; }

/// Parse everything after "pinsim-lint:" in a comment body: allow(a, b)
/// suppressions and the index annotations (hot / shard-owner(n)).
/// `line` is where the comment starts, `end_line` where it ends (they
/// differ for block comments and backslash-continued line comments);
/// the annotation-above form attaches one line past the END, so a
/// continued comment still covers the line of code that follows it.
void record_marks(std::string_view comment, int line, int end_line,
                  bool whole_line, LexResult* out) {
  const std::string_view marker = "pinsim-lint:";
  const std::size_t at = comment.find(marker);
  if (at == std::string_view::npos) return;

  const auto attach = [&](std::map<int, std::set<std::string>>* map,
                          const std::string& value) {
    (*map)[line].insert(value);
    if (whole_line) (*map)[end_line + 1].insert(value);
  };
  // The argument list of the word starting at `i`, or npos when there
  // is none; advances `i` past the close paren on success.
  const auto paren_arg = [&](std::size_t* i) -> std::string_view {
    std::size_t open = *i;
    while (open < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[open])) != 0) {
      ++open;
    }
    if (open >= comment.size() || comment[open] != '(') return {};
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) return {};
    *i = close + 1;
    return comment.substr(open + 1, close - open - 1);
  };

  std::size_t i = at + marker.size();
  while (i < comment.size()) {
    if (!mark_word_char(comment[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < comment.size() && mark_word_char(comment[i])) ++i;
    const std::string_view word = comment.substr(start, i - start);
    if (word == "allow") {
      std::string_view names = paren_arg(&i);
      std::size_t p = 0;
      while (p < names.size()) {
        if (!mark_word_char(names[p])) {
          ++p;
          continue;
        }
        const std::size_t s = p;
        while (p < names.size() && mark_word_char(names[p])) ++p;
        attach(&out->allows, std::string(names.substr(s, p - s)));
      }
    } else if (word == "hot") {
      attach(&out->annotations, std::string(word));
    } else if (word == "shard-owner") {
      std::string_view arg = paren_arg(&i);
      std::string owner;
      for (const char c : arg) {
        if (std::isspace(static_cast<unsigned char>(c)) == 0) owner += c;
      }
      attach(&out->annotations, "shard-owner(" + owner + ")");
    }
    // Any other word after the marker is prose; ignore it.
  }
}

}  // namespace

LexResult lex(std::string_view src) {
  LexResult out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  bool line_has_code = false;  // any token before this point on `line`

  auto newline = [&] {
    ++line;
    line_has_code = false;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment. A backslash immediately before the newline splices
    // the next physical line into the comment, so the whole logical
    // comment is consumed here and every continued line stays
    // invisible to the rule passes.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i;
      const int start_line = line;
      const bool whole_line = !line_has_code;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          i += 2;
          newline();
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      record_marks(src.substr(start, i - start), start_line, line, whole_line,
                   &out);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start = i;
      const int start_line = line;
      const bool whole_line = !line_has_code;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') newline();
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      record_marks(src.substr(start, i - start), start_line, line, whole_line,
                   &out);
      continue;
    }
    // Preprocessor directive: consume the logical line (with
    // continuations) so include paths and macro bodies never leak into
    // the token stream as ordinary tokens.
    if (c == '#' && !line_has_code) {
      std::string text;
      const int start_line = line;
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          i += 2;
          newline();
          continue;
        }
        text += src[i++];
      }
      out.tokens.push_back(Token{Token::kDirective, text, start_line});
      line_has_code = true;
      continue;
    }
    line_has_code = true;
    // Raw string literal. The token carries the line the literal
    // STARTS on (findings anchor there), and the closer's line counts
    // as having code so a trailing `//` comment is not mistaken for a
    // standalone one.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      const int start_line = line;
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && src[p] != '(') delim += src[p++];
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = src.find(closer, p);
      const std::size_t stop =
          end == std::string_view::npos ? n : end + closer.size();
      for (std::size_t k = i; k < stop; ++k) {
        if (src[k] == '\n') newline();
      }
      out.tokens.push_back(Token{Token::kLiteral, "", start_line});
      line_has_code = true;
      i = stop;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') newline();  // unterminated; stay sane
        ++i;
      }
      if (i < n) ++i;
      out.tokens.push_back(Token{Token::kLiteral, "", line});
      continue;
    }
    // Identifier.
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      out.tokens.push_back(
          Token{Token::kIdent, std::string(src.substr(start, i - start)),
                line});
      continue;
    }
    // Number (digit separators, exponents, hex floats).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      const std::size_t start = i;
      while (i < n && (ident_char(src[i]) || src[i] == '.' ||
                       src[i] == '\'' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        ++i;
      }
      out.tokens.push_back(
          Token{Token::kNumber, std::string(src.substr(start, i - start)),
                line});
      continue;
    }
    // Punctuation: '::' and '->' are folded into one token, everything
    // else is a single character.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back(Token{Token::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back(Token{Token::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.tokens.push_back(Token{Token::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

}  // namespace pinsim::lint
