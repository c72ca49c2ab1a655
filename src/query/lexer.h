#ifndef SES_QUERY_LEXER_H_
#define SES_QUERY_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ses {

/// Token kinds of the SES pattern DSL (see query/parser.h for the grammar).
enum class TokenKind {
  kIdentifier,   // c, p, ID, L
  kInteger,      // 264
  kFloat,        // 3.5
  kString,       // 'C' or "C"
  kLeftBrace,    // {
  kRightBrace,   // }
  kComma,        // ,
  kDot,          // .
  kPlus,         // +
  kMinus,        // - (standalone; "-7" lexes as a negative literal)
  kQuestion,     // ?
  kArrow,        // ->
  kSemicolon,    // ;
  kEq,           // = or ==
  kNe,           // != or <>
  kLt,           // <
  kLe,           // <=
  kGt,           // >
  kGe,           // >=
  kEnd,          // end of input
};

std::string_view TokenKindToString(TokenKind kind);

/// One lexed token of DSL input, with its 1-based source position for
/// error messages.
struct Token {
  TokenKind kind;
  std::string text;  // raw text; for kString the unquoted contents
  int line = 1;
  int column = 1;
};

/// Tokenizes DSL input. Keywords are returned as kIdentifier tokens; the
/// parser matches them case-insensitively. `--` starts a comment running to
/// end of line.
Result<std::vector<Token>> Tokenize(std::string_view input);

}  // namespace ses

#endif  // SES_QUERY_LEXER_H_
