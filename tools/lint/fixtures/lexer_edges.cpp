// Fixture: lexer corners that must NOT produce findings, analyzed as
// if under src/os/ (every rule group armed). Banned tokens appear only
// inside comments, string/char/raw-string literals, and preprocessor
// directives — all stripped before the rule passes run.
#include <string>  // rand() time() getenv() in an include-line comment

/* block comment spanning lines:
   std::chrono::steady_clock::now();
   for (auto& kv : some_unordered_map) {}
*/

namespace fixture {

inline std::string banned_tokens_in_literals() {
  const char* a = "time(nullptr) rand() getenv(\"HOME\")";
  const char* b = R"lint(std::random_device dev; std::map<int*, int> m)lint";
  const char c = '"';  // a quote char must not open a string
  std::string out = a;
  out += b;
  out += c;
  return out;
}

// Digit separators and exponents lex as single number tokens.
inline double numbers() { return 1'000'000 * 1.5e-3; }

#define FIXTURE_MACRO(x) time(x)  // directives are consumed whole

}  // namespace fixture
