#include "query/parser.h"

#include "common/strings.h"
#include "query/lexer.h"
#include "query/pattern_builder.h"

namespace ses {

namespace {

/// One side of a comparison before normalization.
struct Operand {
  bool is_ref = false;
  // Reference form, with an optional additive offset ("b.T + 7200"):
  std::string variable;
  std::string attribute;
  Value offset{int64_t{0}};
  // Literal form:
  Value literal;
};

/// a - b for numeric values; integer arithmetic when both are integers.
Value SubtractValues(const Value& a, const Value& b) {
  if (a.is_int64() && b.is_int64()) return Value(a.int64() - b.int64());
  return Value(a.AsNumber() - b.AsNumber());
}

Value NegateValue(const Value& v) {
  if (v.is_int64()) return Value(-v.int64());
  return Value(-v.AsNumber());
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Schema& schema)
      : tokens_(std::move(tokens)), schema_(schema), builder_(schema) {}

  Result<Pattern> Run() {
    SES_RETURN_IF_ERROR(ExpectKeyword("PATTERN"));
    SES_RETURN_IF_ERROR(ParseSet());
    while (Check(TokenKind::kArrow) || Check(TokenKind::kSemicolon)) {
      Advance();
      SES_RETURN_IF_ERROR(ParseSet());
    }
    if (CheckKeyword("WHERE")) {
      Advance();
      SES_RETURN_IF_ERROR(ParseComparison());
      while (CheckKeyword("AND")) {
        Advance();
        SES_RETURN_IF_ERROR(ParseComparison());
      }
    }
    SES_RETURN_IF_ERROR(ExpectKeyword("WITHIN"));
    SES_ASSIGN_OR_RETURN(Duration window, ParseDuration());
    builder_.Within(window);
    if (!Check(TokenKind::kEnd)) {
      return ErrorHere("expected end of input");
    }
    return builder_.Build();
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }

  bool CheckKeyword(std::string_view keyword) const {
    return Peek().kind == TokenKind::kIdentifier &&
           strings::EqualsIgnoreCase(Peek().text, keyword);
  }

  Status ErrorHere(const std::string& message) const {
    const Token& t = Peek();
    return Status::InvalidArgument(
        strings::Format("%d:%d: %s (found %s '%s')", t.line, t.column,
                        message.c_str(),
                        std::string(TokenKindToString(t.kind)).c_str(),
                        t.text.c_str()));
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!CheckKeyword(keyword)) {
      return ErrorHere("expected keyword " + std::string(keyword));
    }
    Advance();
    return Status::OK();
  }

  Status Expect(TokenKind kind) {
    if (!Check(kind)) {
      return ErrorHere("expected " + std::string(TokenKindToString(kind)));
    }
    Advance();
    return Status::OK();
  }

  Status ParseSet() {
    SES_RETURN_IF_ERROR(Expect(TokenKind::kLeftBrace));
    builder_.BeginSet();
    while (true) {
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorHere("expected event variable name");
      }
      std::string name = Advance().text;
      if (Check(TokenKind::kPlus)) {
        Advance();
        builder_.GroupVar(name);
      } else if (Check(TokenKind::kQuestion)) {
        Advance();
        builder_.OptionalVar(name);
      } else {
        builder_.Var(name);
      }
      if (Check(TokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    builder_.EndSet();
    return Expect(TokenKind::kRightBrace);
  }

  /// Writes the literal through `out` rather than returning a
  /// Result<Value>: GCC 12 at -O2 under the sanitizers warns
  /// (-Wmaybe-uninitialized) on the string alternative of a Value moved
  /// out of a Result.
  Status ParseNumericLiteral(Value* out) {
    if (Check(TokenKind::kInteger)) {
      SES_ASSIGN_OR_RETURN(int64_t v, strings::ParseInt64(Advance().text));
      *out = Value(v);
      return Status::OK();
    }
    if (Check(TokenKind::kFloat)) {
      SES_ASSIGN_OR_RETURN(double v, strings::ParseDouble(Advance().text));
      *out = Value(v);
      return Status::OK();
    }
    return ErrorHere("expected a numeric literal");
  }

  Result<Operand> ParseOperand() {
    Operand operand;
    if (Check(TokenKind::kIdentifier)) {
      operand.is_ref = true;
      operand.variable = Advance().text;
      SES_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      if (!Check(TokenKind::kIdentifier)) {
        return ErrorHere("expected attribute name after '.'");
      }
      operand.attribute = Advance().text;
      // Optional additive offset: "+ C", "- C", or an attached negative
      // literal ("b.T -100" lexes as ref followed by integer -100).
      if (Check(TokenKind::kPlus)) {
        Advance();
        SES_RETURN_IF_ERROR(ParseNumericLiteral(&operand.offset));
      } else if (Check(TokenKind::kMinus)) {
        Advance();
        Value magnitude;
        SES_RETURN_IF_ERROR(ParseNumericLiteral(&magnitude));
        operand.offset = NegateValue(magnitude);
      } else if ((Check(TokenKind::kInteger) || Check(TokenKind::kFloat)) &&
                 !Peek().text.empty() && Peek().text[0] == '-') {
        SES_RETURN_IF_ERROR(ParseNumericLiteral(&operand.offset));
      }
      return operand;
    }
    if (Check(TokenKind::kInteger)) {
      SES_ASSIGN_OR_RETURN(int64_t v, strings::ParseInt64(Advance().text));
      operand.literal = Value(v);
      return operand;
    }
    if (Check(TokenKind::kFloat)) {
      SES_ASSIGN_OR_RETURN(double v, strings::ParseDouble(Advance().text));
      operand.literal = Value(v);
      return operand;
    }
    if (Check(TokenKind::kString)) {
      operand.literal = Value(Advance().text);
      return operand;
    }
    return ErrorHere("expected 'variable.attribute' or a literal");
  }

  Result<ComparisonOp> ParseOp() {
    switch (Peek().kind) {
      case TokenKind::kEq:
        Advance();
        return ComparisonOp::kEq;
      case TokenKind::kNe:
        Advance();
        return ComparisonOp::kNe;
      case TokenKind::kLt:
        Advance();
        return ComparisonOp::kLt;
      case TokenKind::kLe:
        Advance();
        return ComparisonOp::kLe;
      case TokenKind::kGt:
        Advance();
        return ComparisonOp::kGt;
      case TokenKind::kGe:
        Advance();
        return ComparisonOp::kGe;
      default:
        return ErrorHere("expected comparison operator");
    }
  }

  /// Coerces an integer literal to double when compared against a DOUBLE
  /// attribute, so `v.V = 1` works for double-typed V.
  Value CoerceLiteral(const Value& literal, const std::string& var,
                      const std::string& attr) {
    if (!literal.is_int64() || attr == "T") return literal;
    Result<int> index = schema_.IndexOf(attr);
    if (index.ok() && schema_.attribute(*index).type == ValueType::kDouble) {
      return Value(static_cast<double>(literal.int64()));
    }
    (void)var;
    return literal;
  }

  Status ParseComparison() {
    SES_ASSIGN_OR_RETURN(Operand lhs, ParseOperand());
    SES_ASSIGN_OR_RETURN(ComparisonOp op, ParseOp());
    SES_ASSIGN_OR_RETURN(Operand rhs, ParseOperand());
    if (!lhs.is_ref && !rhs.is_ref) {
      return ErrorHere(
          "a condition must reference at least one event variable");
    }
    if (!lhs.is_ref) {
      // Normalize `C φ v.A` to `v.A mirror(φ) C`.
      std::swap(lhs, rhs);
      op = MirrorComparison(op);
    }
    if (rhs.is_ref) {
      // (lhs + o1) φ (rhs + o2)  ⇔  lhs φ rhs + (o2 - o1).
      Value offset = SubtractValues(rhs.offset, lhs.offset);
      if (offset.is_int64() && offset.int64() == 0) {
        builder_.WhereVar(lhs.variable, lhs.attribute, op, rhs.variable,
                          rhs.attribute);
      } else {
        builder_.WhereVarOffset(lhs.variable, lhs.attribute, op,
                                rhs.variable, rhs.attribute, offset);
      }
    } else {
      // (lhs + o1) φ C  ⇔  lhs φ (C - o1).
      Value literal =
          CoerceLiteral(rhs.literal, lhs.variable, lhs.attribute);
      bool no_offset = lhs.offset.is_int64() && lhs.offset.int64() == 0;
      if (!no_offset) {
        if (literal.is_string()) {
          return ErrorHere("offsets require a numeric comparison");
        }
        literal = SubtractValues(literal, lhs.offset);
      }
      builder_.WhereConst(lhs.variable, lhs.attribute, op,
                          std::move(literal));
    }
    return Status::OK();
  }

  Result<Duration> ParseDuration() {
    if (!Check(TokenKind::kInteger)) {
      return ErrorHere("expected duration (e.g. 264h)");
    }
    SES_ASSIGN_OR_RETURN(int64_t amount, strings::ParseInt64(Advance().text));
    int64_t multiplier = 1;
    if (Check(TokenKind::kIdentifier)) {
      const std::string& unit = Peek().text;
      if (strings::EqualsIgnoreCase(unit, "s")) {
        multiplier = 1;
      } else if (strings::EqualsIgnoreCase(unit, "m")) {
        multiplier = 60;
      } else if (strings::EqualsIgnoreCase(unit, "h")) {
        multiplier = 3600;
      } else if (strings::EqualsIgnoreCase(unit, "d")) {
        multiplier = 86400;
      } else {
        return ErrorHere("unknown duration unit '" + unit +
                         "' (expected s, m, h, or d)");
      }
      Advance();
    }
    return amount * multiplier;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const Schema& schema_;
  PatternBuilder builder_;
};

}  // namespace

Result<Pattern> ParsePattern(std::string_view text, const Schema& schema) {
  SES_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return Parser(std::move(tokens), schema).Run();
}

}  // namespace ses
