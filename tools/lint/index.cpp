#include "index.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <utility>

#include "lexer.hpp"
#include "util/thread_pool.hpp"

namespace pinsim::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Pass 1: per-file summaries.
// ---------------------------------------------------------------------------

/// Identifiers that look like calls (`name(`) but are control flow or
/// operators; they never produce call edges.
const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kw = {
      "if",        "for",         "while",      "switch",
      "return",    "sizeof",      "alignof",    "alignas",
      "catch",     "throw",       "delete",     "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast",
      "decltype",  "noexcept",    "static_assert", "typeid",
      "co_await",  "co_return",   "co_yield",   "defined",
      "assert",    "__builtin_expect"};
  return kw;
}

/// Identifiers that cannot be the TYPE of a `Type var` declaration
/// binding (keywords, access specifiers, declaration heads).
const std::set<std::string>& non_type_words() {
  static const std::set<std::string> kw = {
      "return",   "new",      "delete",   "if",       "else",
      "case",     "goto",     "using",    "typedef",  "typename",
      "class",    "struct",   "enum",     "union",    "namespace",
      "template", "operator", "const",    "constexpr", "consteval",
      "constinit", "static",  "inline",   "virtual",  "explicit",
      "friend",   "public",   "private",  "protected", "throw",
      "sizeof",   "mutable",  "volatile", "register", "extern",
      "co_return", "co_yield", "co_await", "do",      "while",
      "for",      "switch",   "catch",    "break",    "continue"};
  return kw;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool in_dirs(std::string_view path, const std::vector<std::string>& dirs) {
  for (const std::string& dir : dirs) {
    if (path_matches(path, dir)) return true;
  }
  return false;
}

/// Walks one file's token stream and produces its FileSummary. The
/// scope stack tracks namespace/class braces so definitions are only
/// recognized where C++ allows them; function bodies are consumed by a
/// dedicated scanner that records calls, subscript writes, hot-path
/// risk sites, and declaration-bound touches.
class Summarizer {
 public:
  Summarizer(std::string_view path, const LexResult& lexed)
      : path_(path), lexed_(lexed) {}

  FileSummary run();

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kBlock };
    Kind kind;
    std::string name;
  };

  const std::vector<Token>& toks() const { return lexed_.tokens; }
  const Token* at(std::size_t i) const {
    return i < toks().size() ? &toks()[i] : nullptr;
  }
  bool is_ident(std::size_t i, std::string_view text) const {
    const Token* t = at(i);
    return t != nullptr && t->kind == Token::kIdent && t->text == text;
  }
  bool is_punct(std::size_t i, std::string_view text) const {
    const Token* t = at(i);
    return t != nullptr && t->kind == Token::kPunct && t->text == text;
  }

  /// Index one past the matcher of the opener at `open` ('(' / '[' /
  /// '{' respectively). All three nest through each other.
  std::size_t skip_group(std::size_t open) const;
  /// Index one past a '<...>' group; bails at ';' (comparison, not a
  /// template argument list).
  std::size_t skip_angles(std::size_t open) const;

  std::set<std::string> annotations_at(int line) const {
    const auto it = lexed_.annotations.find(line);
    return it == lexed_.annotations.end() ? std::set<std::string>{}
                                          : it->second;
  }

  void collect_bindings();
  void scan_body(std::size_t begin, std::size_t end, FunctionDef* fn);
  /// Member `post(...)` at ident index `p`: record a MailboxLambda for
  /// each top-level lambda argument unless the destination (second)
  /// argument is the literal 0.
  void extract_mailbox(std::size_t p, const std::string& enclosing);
  void scan_mailbox_body(std::size_t begin, std::size_t end,
                         MailboxLambda* ml);
  /// Spans (as [first, last) token ranges) of member post(...) calls
  /// inside [begin, end), including the post ident itself.
  std::vector<std::pair<std::size_t, std::size_t>> post_spans(
      std::size_t begin, std::size_t end) const;

  std::string_view path_;
  const LexResult& lexed_;
  FileSummary out_;
};

std::size_t Summarizer::skip_group(std::size_t open) const {
  int depth = 0;
  std::size_t i = open;
  for (; i < toks().size(); ++i) {
    const Token& t = toks()[i];
    if (t.kind != Token::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") {
      ++depth;
    } else if (t.text == ")" || t.text == "]" || t.text == "}") {
      if (--depth == 0) return i + 1;
    }
  }
  return i;
}

std::size_t Summarizer::skip_angles(std::size_t open) const {
  int depth = 0;
  std::size_t i = open;
  for (; i < toks().size(); ++i) {
    const Token& t = toks()[i];
    if (t.kind != Token::kPunct) continue;
    if (t.text == "<") {
      ++depth;
    } else if (t.text == ">") {
      if (--depth == 0) return i + 1;
    } else if (t.text == ";") {
      break;  // a comparison, not template arguments
    }
  }
  return i;
}

void Summarizer::collect_bindings() {
  // `Type [*|&|const]* var` followed by a declarator terminator binds
  // var -> Type for the whole file. The shapes cover locals, members,
  // parameters, and range-for bindings; collisions keep the last
  // declaration, which is the right approximation for a per-file map.
  for (std::size_t i = 0; i + 1 < toks().size(); ++i) {
    const Token& type = toks()[i];
    if (type.kind != Token::kIdent) continue;
    if (non_type_words().count(type.text) != 0) continue;
    // A field access `obj.Type` is not a declaration head.
    if (i > 0 && (is_punct(i - 1, ".") || is_punct(i - 1, "->"))) continue;
    std::size_t j = i + 1;
    while (is_punct(j, "*") || is_punct(j, "&") || is_ident(j, "const")) ++j;
    const Token* var = at(j);
    if (var == nullptr || var->kind != Token::kIdent) continue;
    if (non_type_words().count(var->text) != 0) continue;
    const Token* term = at(j + 1);
    if (term == nullptr || term->kind != Token::kPunct) continue;
    const std::string& tt = term->text;
    if (tt == ";" || tt == "=" || tt == "(" || tt == "{" || tt == "," ||
        tt == ")" || tt == ":") {
      out_.bindings[var->text] = type.text;
    }
  }
}

std::vector<std::pair<std::size_t, std::size_t>> Summarizer::post_spans(
    std::size_t begin, std::size_t end) const {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t j = begin; j < end; ++j) {
    if (!is_ident(j, "post") || !is_punct(j + 1, "(")) continue;
    if (j < 1 || !(is_punct(j - 1, ".") || is_punct(j - 1, "->"))) continue;
    spans.emplace_back(j, std::min(skip_group(j + 1), end));
  }
  return spans;
}

void Summarizer::scan_body(std::size_t begin, std::size_t end,
                           FunctionDef* fn) {
  const auto posts = post_spans(begin, end);
  const auto in_post = [&](std::size_t j) {
    for (const auto& [a, b] : posts) {
      if (j >= a && j < b) return true;
    }
    return false;
  };

  for (std::size_t j = begin; j < end; ++j) {
    const Token& t = toks()[j];
    if (t.kind != Token::kIdent) continue;
    const std::string& s = t.text;
    const bool member =
        j >= 1 && (is_punct(j - 1, ".") || is_punct(j - 1, "->"));

    if (s == "new" && !(j >= 1 && is_ident(j - 1, "operator"))) {
      fn->risks.push_back(RiskSite{RiskSite::kNew, "", t.line});
      continue;
    }
    if (s == "make_unique" || s == "make_shared") {
      fn->risks.push_back(RiskSite{s == "make_unique" ? RiskSite::kMakeUnique
                                                      : RiskSite::kMakeShared,
                                   "", t.line});
      continue;
    }
    if (s == "function" && j >= 2 && is_punct(j - 1, "::") &&
        is_ident(j - 2, "std")) {
      fn->risks.push_back(RiskSite{RiskSite::kStdFunction, "", t.line});
      continue;
    }

    if (is_punct(j + 1, "(")) {
      const std::string receiver =
          member && j >= 2 && toks()[j - 2].kind == Token::kIdent
              ? toks()[j - 2].text
              : "";
      if (member && (s == "push_back" || s == "emplace_back")) {
        fn->risks.push_back(RiskSite{RiskSite::kPushBack, receiver, t.line});
        continue;
      }
      if (member && s == "reserve") {
        out_.reserved.insert({fn->klass, receiver});
        continue;
      }
      if (control_keywords().count(s) != 0) continue;
      CallSite call;
      call.name = s;
      call.member = member;
      call.receiver = receiver;
      call.in_post = in_post(j);
      call.line = t.line;
      if (!member && j >= 2 && is_punct(j - 1, "::") &&
          toks()[j - 2].kind == Token::kIdent) {
        if (toks()[j - 2].text == "std") continue;  // never resolves
        call.qualifier = toks()[j - 2].text;
      }
      fn->calls.push_back(call);
      if (member && s == "post") extract_mailbox(j, fn->name);
      continue;
    }

    // `var.` / `var->` touch of a declaration-bound variable.
    if ((is_punct(j + 1, ".") || is_punct(j + 1, "->")) && !member &&
        !(j >= 1 && is_punct(j - 1, "::"))) {
      const auto bound = out_.bindings.find(s);
      if (bound != out_.bindings.end()) {
        fn->touches.push_back(
            BoundTouch{s, bound->second, in_post(j), t.line});
      }
    }

    // `name[...] =` / `name[...] op=` subscript writes.
    if (is_punct(j + 1, "[")) {
      std::size_t m = skip_group(j + 1);
      while (is_punct(m, "[")) m = skip_group(m);
      const bool plain = is_punct(m, "=") && !is_punct(m + 1, "=");
      const bool compound =
          (is_punct(m, "+") || is_punct(m, "-") || is_punct(m, "*") ||
           is_punct(m, "/") || is_punct(m, "|") || is_punct(m, "&") ||
           is_punct(m, "^")) &&
          is_punct(m + 1, "=");
      if (plain || compound) {
        fn->writes.push_back(SubscriptWrite{s, t.line});
      }
    }
  }
}

void Summarizer::extract_mailbox(std::size_t p, const std::string& enclosing) {
  const std::size_t open = p + 1;
  const std::size_t close = skip_group(open);  // one past ')'
  // Top-level commas and lambda starts inside the argument list.
  std::vector<std::size_t> commas;
  std::vector<std::size_t> lambdas;
  int depth = 0;
  for (std::size_t j = open; j < close; ++j) {
    const Token& t = toks()[j];
    if (t.kind != Token::kPunct) continue;
    if (t.text == "(" || t.text == "{") {
      ++depth;
    } else if (t.text == ")" || t.text == "}") {
      --depth;
    } else if (t.text == "[") {
      if (depth == 1 && (is_punct(j - 1, "(") || is_punct(j - 1, ","))) {
        lambdas.push_back(j);
      }
      ++depth;
    } else if (t.text == "]") {
      --depth;
    } else if (t.text == "," && depth == 1) {
      commas.push_back(j);
    }
  }
  // The mailbox signature is post(src, dst, delay, callback): a
  // destination that is literally the token `0` is the sanctioned
  // post-back to the shard-0 front end, not a cross-shard callback.
  if (commas.size() >= 2) {
    const std::size_t a = commas[0] + 1;
    const std::size_t b = commas[1];
    if (b == a + 1 && toks()[a].kind == Token::kNumber &&
        toks()[a].text == "0") {
      return;
    }
  }
  for (const std::size_t ls : lambdas) {
    std::size_t j = skip_group(ls);                    // past capture list
    if (is_punct(j, "(")) j = skip_group(j);           // past parameters
    while (is_ident(j, "mutable") || is_ident(j, "noexcept")) ++j;
    if (!is_punct(j, "{")) continue;
    const std::size_t body_end = skip_group(j);
    MailboxLambda ml;
    ml.file = std::string(path_);
    ml.enclosing = enclosing;
    ml.line = toks()[p].line;
    scan_mailbox_body(j + 1, body_end - 1, &ml);
    out_.mailbox.push_back(std::move(ml));
  }
}

void Summarizer::scan_mailbox_body(std::size_t begin, std::size_t end,
                                   MailboxLambda* ml) {
  const auto posts = post_spans(begin, end);
  std::size_t j = begin;
  while (j < end) {
    // Skip nested mailbox posts entirely: posting back through the
    // mailbox is the sanctioned way to reach shard-0 state.
    bool skipped = false;
    for (const auto& [a, b] : posts) {
      if (j == a) {
        j = b;
        skipped = true;
        break;
      }
    }
    if (skipped) continue;
    const Token& t = toks()[j];
    if (t.kind != Token::kIdent) {
      ++j;
      continue;
    }
    const std::string& s = t.text;
    const bool member =
        j >= 1 && (is_punct(j - 1, ".") || is_punct(j - 1, "->"));
    if (is_punct(j + 1, "(") && control_keywords().count(s) == 0) {
      CallSite call;
      call.name = s;
      call.member = member;
      call.receiver = member && j >= 2 && toks()[j - 2].kind == Token::kIdent
                          ? toks()[j - 2].text
                          : "";
      call.line = t.line;
      if (!member && j >= 2 && is_punct(j - 1, "::") &&
          toks()[j - 2].kind == Token::kIdent) {
        if (toks()[j - 2].text == "std") {
          ++j;
          continue;
        }
        call.qualifier = toks()[j - 2].text;
      }
      ml->calls.push_back(call);
    } else if ((is_punct(j + 1, ".") || is_punct(j + 1, "->")) && !member &&
               !(j >= 1 && is_punct(j - 1, "::"))) {
      const auto bound = out_.bindings.find(s);
      if (bound != out_.bindings.end()) {
        ml->touches.push_back(BoundTouch{s, bound->second, false, t.line});
      }
    }
    ++j;
  }
}

FileSummary Summarizer::run() {
  out_.path = std::string(path_);
  out_.allows = lexed_.allows;
  collect_bindings();

  std::vector<Scope> scopes;
  std::size_t i = 0;
  while (i < toks().size()) {
    const Token& t = toks()[i];
    if (t.kind == Token::kDirective || t.kind == Token::kLiteral ||
        t.kind == Token::kNumber) {
      ++i;
      continue;
    }
    if (t.kind == Token::kPunct) {
      if (t.text == "{") {
        scopes.push_back(Scope{Scope::kBlock, ""});
      } else if (t.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
      }
      ++i;
      continue;
    }

    const std::string& w = t.text;
    if (w == "template" && is_punct(i + 1, "<")) {
      i = skip_angles(i + 1);
      continue;
    }
    if (w == "enum") {
      // `enum [class] Name [: type] { ... };` — consume wholesale so
      // the `class` keyword and enumerator list stay out of the walk.
      std::size_t j = i + 1;
      while (j < toks().size() && !is_punct(j, "{") && !is_punct(j, ";")) ++j;
      i = is_punct(j, "{") ? skip_group(j) : j + 1;
      continue;
    }
    if (w == "namespace") {
      std::size_t j = i + 1;
      std::string name;
      while (j < toks().size() &&
             (toks()[j].kind == Token::kIdent || is_punct(j, "::"))) {
        if (toks()[j].kind == Token::kIdent) name = toks()[j].text;
        ++j;
      }
      if (is_punct(j, "{")) {
        scopes.push_back(Scope{Scope::kNamespace, name});
        i = j + 1;
      } else {
        while (j < toks().size() && !is_punct(j, ";")) ++j;  // alias
        i = j + 1;
      }
      continue;
    }
    if (w == "class" || w == "struct" || w == "union") {
      std::size_t j = i + 1;
      std::string name;
      while (j < toks().size() && toks()[j].kind == Token::kIdent) {
        name = toks()[j].text;
        ++j;
        if (is_punct(j, "<")) j = skip_angles(j);  // specialization
      }
      if (is_punct(j, ":")) {  // base clause
        while (j < toks().size() && !is_punct(j, "{") && !is_punct(j, ";")) {
          if (is_punct(j, "<")) {
            j = skip_angles(j);
            continue;
          }
          ++j;
        }
      }
      if (is_punct(j, "{") && !name.empty()) {
        ClassDef cd;
        cd.name = name;
        cd.file = std::string(path_);
        cd.line = t.line;
        cd.annotations = annotations_at(t.line);
        out_.classes.push_back(std::move(cd));
        scopes.push_back(Scope{Scope::kClass, name});
        i = j + 1;
        continue;
      }
      ++i;  // forward declaration or elaborated-type variable
      continue;
    }

    // Function definitions are only recognized at namespace / class
    // scope; anything inside an unrecognized block (initializer
    // braces, enum bodies that slipped through) is skipped.
    const bool def_scope = scopes.empty() ||
                           scopes.back().kind == Scope::kNamespace ||
                           scopes.back().kind == Scope::kClass;
    if (!def_scope ||
        (w != "operator" && (control_keywords().count(w) != 0 ||
                             non_type_words().count(w) != 0))) {
      ++i;
      continue;
    }

    std::string name = w;
    std::size_t open = i + 1;
    if (w == "operator") {
      // `operator<`, `operator+=`, `operator bool`, ... — glue the
      // spelling onto the name and find the parameter list.
      std::size_t j = i + 1;
      while (j < toks().size() && !is_punct(j, "(") && !is_punct(j, ";") &&
             !is_punct(j, "{")) {
        name += toks()[j].text;
        ++j;
      }
      if (!is_punct(j, "(")) {
        i = j;
        continue;
      }
      open = j;
    } else if (!is_punct(i + 1, "(")) {
      ++i;
      continue;
    }

    // Reject expression contexts (`= f(...)` initializers, macro
    // arguments, casts); accept declaration heads.
    if (i > 0) {
      const Token& prev = toks()[i - 1];
      if (prev.kind == Token::kNumber || prev.kind == Token::kLiteral) {
        ++i;
        continue;
      }
      if (prev.kind == Token::kPunct) {
        const std::string& pt = prev.text;
        // `{` and `:` admit in-class constructors, whose name directly
        // follows the class brace or an access specifier.
        const bool ok = pt == ";" || pt == "}" || pt == "*" || pt == "&" ||
                        pt == ">" || pt == "::" || pt == "~" || pt == "{" ||
                        pt == ":";
        if (!ok) {
          ++i;
          continue;
        }
      }
    }

    std::string klass =
        (!scopes.empty() && scopes.back().kind == Scope::kClass)
            ? scopes.back().name
            : "";
    const bool dtor = i >= 1 && is_punct(i - 1, "~");
    const std::size_t qi = dtor ? i - 1 : i;
    if (qi >= 2 && is_punct(qi - 1, "::") &&
        toks()[qi - 2].kind == Token::kIdent) {
      klass = toks()[qi - 2].text;
    }
    if (dtor) name = "~" + name;

    std::size_t j = skip_group(open);  // past the parameter list
    bool reject = false;
    while (j < toks().size()) {
      if (toks()[j].kind == Token::kIdent) {
        const std::string& s = toks()[j].text;
        if (s == "const" || s == "noexcept" || s == "override" ||
            s == "final" || s == "mutable" || s == "volatile" || s == "try") {
          ++j;
          continue;
        }
        reject = true;  // `int x(3), y(4);` style — not a definition
        break;
      }
      if (is_punct(j, "&")) {  // ref-qualifiers (&& is two tokens)
        ++j;
        continue;
      }
      if (is_punct(j, "(")) {  // noexcept(...)
        j = skip_group(j);
        continue;
      }
      if (is_punct(j, "->")) {  // trailing return type
        ++j;
        while (j < toks().size() && !is_punct(j, "{") && !is_punct(j, ";") &&
               !is_punct(j, "=")) {
          if (is_punct(j, "<")) {
            j = skip_angles(j);
            continue;
          }
          ++j;
        }
        continue;
      }
      break;
    }
    if (reject) {
      ++i;
      continue;
    }
    if (is_punct(j, ":")) {
      // Constructor member-init list: `name(args), base(args) {`.
      ++j;
      while (j < toks().size()) {
        while (j < toks().size() &&
               (toks()[j].kind == Token::kIdent || is_punct(j, "::"))) {
          ++j;
        }
        if (is_punct(j, "<")) j = skip_angles(j);
        if (is_punct(j, "(") || is_punct(j, "{")) {
          j = skip_group(j);
        } else {
          break;
        }
        if (is_punct(j, ",")) {
          ++j;
          continue;
        }
        break;
      }
    }
    if (is_punct(j, "=") || is_punct(j, ";")) {
      // `= default` / `= delete` / pure virtual / plain declaration.
      while (j < toks().size() && !is_punct(j, ";")) ++j;
      i = j + 1;
      continue;
    }
    if (!is_punct(j, "{")) {
      ++i;
      continue;
    }

    const std::size_t body_end = skip_group(j);
    FunctionDef fn;
    fn.name = name;
    fn.klass = klass;
    fn.file = std::string(path_);
    fn.line = t.line;
    fn.annotations = annotations_at(t.line);
    scan_body(j + 1, body_end - 1, &fn);
    out_.functions.push_back(std::move(fn));
    i = body_end;
  }
  return out_;
}

}  // namespace

FileSummary summarize_file(std::string_view path, std::string_view contents) {
  const LexResult lexed = lex(contents);
  return Summarizer(path, lexed).run();
}

// ---------------------------------------------------------------------------
// Pass 2: the merged index and the reachability rules.
// ---------------------------------------------------------------------------

SymbolIndex SymbolIndex::build(std::vector<FileSummary> summaries) {
  SymbolIndex index;
  index.files = std::move(summaries);
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    const FileSummary& file = index.files[fi];
    index.file_id[file.path] = static_cast<int>(fi);
    for (const FunctionDef& fn : file.functions) {
      index.by_name[fn.name].push_back(
          static_cast<int>(index.functions.size()));
      index.functions.push_back(&fn);
    }
    for (const ClassDef& cd : file.classes) {
      index.class_annotations[cd.name].insert(cd.annotations.begin(),
                                              cd.annotations.end());
    }
    index.reserved.insert(file.reserved.begin(), file.reserved.end());
  }
  return index;
}

int SymbolIndex::resolve(const CallSite& call, const std::string& from_file,
                         const std::string& from_class) const {
  const auto named = by_name.find(call.name);
  if (named == by_name.end()) return -1;
  const std::vector<int>& ids = named->second;

  const auto unique_in_class = [&](const std::string& klass) -> int {
    int found = -1;
    for (const int id : ids) {
      if (functions[id]->klass != klass) continue;
      if (found >= 0) return -1;  // overload set inside the class
      found = id;
    }
    return found;
  };

  if (!call.qualifier.empty()) {
    // A qualifier that names no indexed class is a namespace
    // (`os::requeue(...)`): it narrows the call to the free functions.
    const bool is_class = class_annotations.count(call.qualifier) != 0;
    return unique_in_class(is_class ? call.qualifier : "");
  }
  if (call.member && !call.receiver.empty()) {
    const auto fid = file_id.find(from_file);
    if (fid != file_id.end()) {
      const auto& bindings = files[fid->second].bindings;
      const auto bound = bindings.find(call.receiver);
      if (bound != bindings.end()) {
        const int id = unique_in_class(bound->second);
        if (id >= 0) return id;
      }
    }
  }
  if (!call.member && !from_class.empty()) {
    const int id = unique_in_class(from_class);
    if (id >= 0) return id;  // unqualified call inside a method
  }
  return ids.size() == 1 ? ids[0] : -1;
}

namespace {

class IndexChecker {
 public:
  IndexChecker(const Config& config, const SymbolIndex& index,
               std::vector<Diagnostic>* out)
      : config_(config), index_(index), out_(out) {}

  void run() {
    check_hot_path();
    check_quiet_funnel();
    check_shard_affinity();
  }

 private:
  const FunctionDef& fn(int id) const { return *index_.functions[id]; }
  int resolve(const CallSite& call, int from) const {
    return index_.resolve(call, fn(from).file, fn(from).klass);
  }

  void report(const std::string& rule, const std::string& file, int line,
              std::string message) {
    const auto fid = index_.file_id.find(file);
    if (fid != index_.file_id.end()) {
      const auto& allows = index_.files[fid->second].allows;
      const auto it = allows.find(line);
      if (it != allows.end() &&
          (it->second.count(rule) != 0 || it->second.count("all") != 0)) {
        return;
      }
    }
    out_->push_back(Diagnostic{rule, file, line, std::move(message)});
  }

  void check_hot_path();
  void check_quiet_funnel();
  void check_shard_affinity();

  const Config& config_;
  const SymbolIndex& index_;
  std::vector<Diagnostic>* out_;
};

void IndexChecker::check_hot_path() {
  const int n = static_cast<int>(index_.functions.size());
  std::vector<int> root(n, -1);    // hot entry that first reached the fn
  std::vector<int> parent(n, -1);  // BFS predecessor, for the message
  std::vector<int> work;
  for (int id = 0; id < n; ++id) {
    if (fn(id).annotations.count("hot") != 0) {
      root[id] = id;
      work.push_back(id);
    }
  }
  for (std::size_t qi = 0; qi < work.size(); ++qi) {
    const int id = work[qi];
    for (const CallSite& call : fn(id).calls) {
      const int tgt = resolve(call, id);
      if (tgt < 0 || root[tgt] >= 0) continue;
      root[tgt] = root[id];
      parent[tgt] = id;
      work.push_back(tgt);
    }
  }
  for (int id = 0; id < n; ++id) {
    if (root[id] < 0) continue;
    const FunctionDef& f = fn(id);
    if (!in_dirs(f.file, config_.hot_path_dirs)) continue;
    std::string where = "reachable from hot entry '" + fn(root[id]).name + "'";
    if (parent[id] >= 0 && parent[id] != root[id]) {
      where += " via '" + fn(parent[id]).name + "'";
    }
    for (const RiskSite& risk : f.risks) {
      switch (risk.kind) {
        case RiskSite::kNew:
          report("hot-path", f.file, risk.line,
                 "`new` in '" + f.name + "' (" + where +
                     ") — allocate up front or draw from a pool; a heap "
                     "round-trip on the tick path dominates the quiet-core "
                     "fast-forward savings");
          break;
        case RiskSite::kMakeUnique:
        case RiskSite::kMakeShared:
          report("hot-path", f.file, risk.line,
                 std::string(risk.kind == RiskSite::kMakeUnique
                                 ? "make_unique"
                                 : "make_shared") +
                     " allocates in '" + f.name + "' (" + where +
                     ") — allocate up front or draw from a pool");
          break;
        case RiskSite::kPushBack:
          if (index_.reserved.count({f.klass, risk.detail}) != 0 ||
              index_.reserved.count({"", risk.detail}) != 0) {
            break;
          }
          report("hot-path", f.file, risk.line,
                 "push_back into '" + risk.detail +
                     "' which is never reserve()d (" + where +
                     ") — growth reallocates inside the hot loop; reserve "
                     "capacity where the container is sized");
          break;
        case RiskSite::kStdFunction:
          report("hot-path", f.file, risk.line,
                 "std::function in '" + f.name + "' (" + where +
                     ") — it type-erases through the heap; use "
                     "util::MoveFunction or a template parameter");
          break;
      }
    }
  }
}

void IndexChecker::check_quiet_funnel() {
  const Config::QuietFunnel& qf = config_.quiet_funnel;
  if (qf.funnel.empty()) return;
  const int n = static_cast<int>(index_.functions.size());

  const auto is_state = [&](const std::string& name) {
    for (const std::string& prefix : qf.state_prefixes) {
      if (starts_with(name, prefix)) return true;
    }
    return false;
  };
  const auto writes_state = [&](int id) {
    for (const SubscriptWrite& w : fn(id).writes) {
      if (is_state(w.name)) return true;
    }
    return false;
  };
  const auto blocked = [&](int id) {
    return fn(id).name == qf.funnel ||
           fn(id).annotations.count("quiet-mutator") != 0;
  };

  // Forward closure from entry points (functions nothing in the index
  // calls), never traversing THROUGH the funnel or an annotated
  // mutator: anything marked here can run without exit_quiet() having
  // run first.
  std::vector<int> callers(n, 0);
  for (int id = 0; id < n; ++id) {
    for (const CallSite& call : fn(id).calls) {
      const int tgt = resolve(call, id);
      if (tgt >= 0) ++callers[tgt];
    }
  }
  std::vector<char> not_funneled(n, 0);
  std::vector<int> work;
  for (int id = 0; id < n; ++id) {
    if (callers[id] == 0 && !blocked(id)) {
      not_funneled[id] = 1;
      work.push_back(id);
    }
  }
  for (std::size_t qi = 0; qi < work.size(); ++qi) {
    for (const CallSite& call : fn(work[qi]).calls) {
      const int tgt = resolve(call, work[qi]);
      if (tgt < 0 || not_funneled[tgt] != 0 || blocked(tgt)) continue;
      not_funneled[tgt] = 1;
      work.push_back(tgt);
    }
  }

  for (int id = 0; id < n; ++id) {
    const FunctionDef& f = fn(id);
    if (!in_dirs(f.file, qf.dirs)) continue;
    if (f.name == qf.funnel) continue;
    if (f.annotations.count("quiet-mutator") != 0) {
      // A stale annotation is itself a finding: the audit claim must
      // be about something.
      bool touches_quiet_state = writes_state(id);
      for (const CallSite& call : f.calls) {
        if (touches_quiet_state) break;
        if (call.name == qf.funnel) touches_quiet_state = true;
        const int tgt = resolve(call, id);
        if (tgt >= 0 && writes_state(tgt)) touches_quiet_state = true;
      }
      if (!touches_quiet_state) {
        report("quiet-funnel", f.file, f.line,
               "'" + f.name +
                   "' is annotated quiet-mutator but neither writes "
                   "quiet-window state nor calls " +
                   qf.funnel + "() — drop the stale annotation");
      }
      continue;
    }
    if (!writes_state(id) || not_funneled[id] == 0) continue;
    for (const SubscriptWrite& w : f.writes) {
      if (!is_state(w.name)) continue;
      report("quiet-funnel", f.file, w.line,
             "'" + f.name + "' writes quiet-window state '" + w.name +
                 "' but is reachable without passing through " + qf.funnel +
                 "() — fast-forward bookkeeping can be skipped; call " +
                 qf.funnel +
                 "() first, or annotate the function quiet-mutator after "
                 "auditing the path");
    }
  }
}

void IndexChecker::check_shard_affinity() {
  const auto owned_class = [&](const std::string& name) {
    const auto it = index_.class_annotations.find(name);
    if (it == index_.class_annotations.end()) return false;
    for (const std::string& a : it->second) {
      if (starts_with(a, "shard-owner")) return true;
    }
    return false;
  };
  const auto owned_fn = [&](int id) {
    for (const std::string& a : fn(id).annotations) {
      if (starts_with(a, "shard-owner")) return true;
    }
    return !fn(id).klass.empty() && owned_class(fn(id).klass);
  };

  std::set<std::pair<std::string, int>> reported;  // (file, line) dedupe
  const auto flag = [&](const std::string& file, int line,
                        const std::string& what, const std::string& root) {
    if (!reported.insert({file, line}).second) return;
    report("shard-affinity", file, line,
           what + " on a cross-shard path (mailbox callback posted at " +
               root +
               ") — shard-0-owned state may only be reached by posting "
               "back through the mailbox");
  };

  for (const FileSummary& file : index_.files) {
    if (!in_dirs(file.path, config_.shard_affinity_dirs)) continue;
    for (const MailboxLambda& ml : file.mailbox) {
      const std::string root =
          ml.file + ":" + std::to_string(ml.line) + " in '" + ml.enclosing +
          "'";
      // Direct touches / calls inside the callback body.
      for (const BoundTouch& touch : ml.touches) {
        if (owned_class(touch.type)) {
          flag(ml.file, touch.line,
               "'" + touch.var + "' ('" + touch.type +
                   "') is shard-0-owned state touched",
               root);
        }
      }
      std::vector<int> work;
      std::set<int> seen;
      for (const CallSite& call : ml.calls) {
        // Receiver-typed touches already flag bound receivers; only
        // resolve the call edge here.
        const int tgt = index_.resolve(call, ml.file, "");
        if (tgt < 0) continue;
        if (owned_fn(tgt)) {
          const FunctionDef& target = fn(tgt);
          const std::string label = target.klass.empty()
                                        ? target.name
                                        : target.klass + "::" + target.name;
          flag(ml.file, call.line, "call to shard-0-owned '" + label + "'",
               root);
        } else if (seen.insert(tgt).second) {
          work.push_back(tgt);
        }
      }
      for (std::size_t qi = 0; qi < work.size(); ++qi) {
        const int id = work[qi];
        const FunctionDef& f = fn(id);
        for (const BoundTouch& touch : f.touches) {
          if (touch.in_post) continue;  // posting back is sanctioned
          if (owned_class(touch.type)) {
            flag(f.file, touch.line,
                 "'" + touch.var + "' ('" + touch.type +
                     "') is shard-0-owned state touched in '" + f.name + "'",
                 root);
          }
        }
        for (const CallSite& call : f.calls) {
          if (call.in_post) continue;
          const int tgt = resolve(call, id);
          if (tgt >= 0) {
            if (owned_fn(tgt)) {
              const FunctionDef& target = fn(tgt);
              const std::string label =
                  target.klass.empty() ? target.name
                                       : target.klass + "::" + target.name;
              flag(f.file, call.line,
                   "call to shard-0-owned '" + label + "'", root);
            } else if (seen.insert(tgt).second) {
              work.push_back(tgt);
            }
          }
        }
      }
    }
  }
}

}  // namespace

void run_index_rules(const Config& config, const SymbolIndex& index,
                     std::vector<Diagnostic>* out) {
  IndexChecker(config, index, out).run();
}

// ---------------------------------------------------------------------------
// Whole-tree scanning.
// ---------------------------------------------------------------------------

namespace {

bool source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

bool skipped_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == "fixtures" || name.rfind("build", 0) == 0 ||
         name.rfind('.', 0) == 0;
}

struct FileResult {
  bool ok = true;
  std::vector<Diagnostic> diags;
  FileSummary summary;
  bool has_summary = false;
};

FileResult scan_one(const Config& config, const std::string& root,
                    const std::string& rel, bool analyze, bool index) {
  FileResult result;
  const std::string full = root.empty() ? rel : root + "/" + rel;
  std::ifstream in(full, std::ios::binary);
  if (!in) {
    result.ok = false;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  if (analyze) analyze_file(config, rel, contents, &result.diags);
  if (index) {
    result.summary = summarize_file(rel, contents);
    result.has_summary = true;
  }
  return result;
}

}  // namespace

bool collect_sources(const std::string& root, const std::string& rel,
                     std::vector<std::string>* out, std::string* error) {
  const fs::path full = fs::path(root) / rel;
  std::error_code ec;
  if (fs::is_regular_file(full, ec)) {
    out->push_back(rel);
    return true;
  }
  if (!fs::is_directory(full, ec)) {
    if (error != nullptr) {
      *error = "no such file or directory: " + full.string();
    }
    return false;
  }
  fs::recursive_directory_iterator it(full, ec), end;
  if (ec) {
    if (error != nullptr) {
      *error = "cannot walk " + full.string() + ": " + ec.message();
    }
    return false;
  }
  for (; it != end; it.increment(ec)) {
    if (ec) {
      if (error != nullptr) {
        *error = "cannot walk " + full.string() + ": " + ec.message();
      }
      return false;
    }
    if (it->is_directory() && skipped_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && source_file(it->path())) {
      out->push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  return true;
}

bool scan_tree(const Config& config, const std::string& root,
               const TreeScanOptions& options, TreeScanResult* result,
               std::string* error) {
  std::vector<std::string> analyze;
  for (const std::string& p : options.paths) {
    if (!collect_sources(root, p, &analyze, error)) return false;
  }
  std::sort(analyze.begin(), analyze.end());
  analyze.erase(std::unique(analyze.begin(), analyze.end()), analyze.end());

  // The index always covers config.index_dirs in full, so reachability
  // sees whole call chains even when only a subset is analyzed.
  std::vector<std::string> indexed;
  for (const std::string& dir : config.index_dirs) {
    std::string rel = dir;
    while (!rel.empty() && rel.back() == '/') rel.pop_back();
    std::error_code ec;
    if (!fs::is_directory(fs::path(root) / rel, ec)) continue;
    if (!collect_sources(root, rel, &indexed, error)) return false;
  }
  std::sort(indexed.begin(), indexed.end());
  indexed.erase(std::unique(indexed.begin(), indexed.end()), indexed.end());

  // Path-sorted union; each file is read and lexed once per concern.
  struct Entry {
    std::string path;
    bool analyze = false;
    bool index = false;
  };
  std::vector<Entry> entries;
  std::size_t ai = 0, ii = 0;
  while (ai < analyze.size() || ii < indexed.size()) {
    if (ii >= indexed.size() ||
        (ai < analyze.size() && analyze[ai] < indexed[ii])) {
      entries.push_back(Entry{analyze[ai++], true, false});
    } else if (ai >= analyze.size() || indexed[ii] < analyze[ai]) {
      entries.push_back(Entry{indexed[ii++], false, true});
    } else {
      entries.push_back(Entry{analyze[ai], true, true});
      ++ai;
      ++ii;
    }
  }

  std::vector<FileResult> results(entries.size());
  if (options.jobs > 1) {
    util::ThreadPool pool(options.jobs);
    std::vector<std::future<FileResult>> futures;
    futures.reserve(entries.size());
    for (const Entry& e : entries) {
      futures.push_back(pool.submit([&config, &root, e] {
        return scan_one(config, root, e.path, e.analyze, e.index);
      }));
    }
    for (std::size_t k = 0; k < futures.size(); ++k) {
      results[k] = futures[k].get();
    }
  } else {
    for (std::size_t k = 0; k < entries.size(); ++k) {
      results[k] =
          scan_one(config, root, entries[k].path, entries[k].analyze,
                   entries[k].index);
    }
  }

  std::vector<FileSummary> summaries;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (!results[k].ok) {
      if (error != nullptr) *error = "cannot read " + entries[k].path;
      return false;
    }
    for (Diagnostic& d : results[k].diags) {
      result->diags.push_back(std::move(d));
    }
    if (results[k].has_summary) {
      summaries.push_back(std::move(results[k].summary));
      ++result->indexed;
    }
  }
  result->files = std::move(analyze);

  const SymbolIndex index = SymbolIndex::build(std::move(summaries));
  run_index_rules(config, index, &result->diags);
  std::stable_sort(result->diags.begin(), result->diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return true;
}

}  // namespace pinsim::lint
