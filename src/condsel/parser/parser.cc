#include "condsel/parser/parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

namespace condsel {
namespace {

enum class TokKind { kIdent, kNumber, kSymbol, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;  // identifiers upper-cased for keyword comparison,
                     // original preserved in `raw`
  std::string raw;
  int64_t number = 0;
  bool number_in_range = true;  // false for literals outside int64
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) { Advance(); }

  const Token& peek() const { return current_; }

  Token Take() {
    Token t = current_;
    Advance();
    return t;
  }

 private:
  void Advance() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    current_ = Token{};
    if (pos_ >= input_.size()) {
      current_.kind = TokKind::kEnd;
      current_.text = "<end>";
      return;
    }
    const char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = pos_;
      while (end < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[end])) ||
              input_[end] == '_')) {
        ++end;
      }
      current_.kind = TokKind::kIdent;
      current_.raw = input_.substr(pos_, end - pos_);
      for (char ch : current_.raw) {
        current_.text += static_cast<char>(
            std::toupper(static_cast<unsigned char>(ch)));
      }
      pos_ = end;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < input_.size() &&
         std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
      size_t end = pos_ + 1;
      while (end < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[end]))) {
        ++end;
      }
      current_.kind = TokKind::kNumber;
      current_.raw = input_.substr(pos_, end - pos_);
      current_.text = current_.raw;
      // strtoll, unlike atoll, has defined overflow behavior: adversarial
      // giant literals must produce a parse error, not UB.
      errno = 0;
      current_.number = std::strtoll(current_.raw.c_str(), nullptr, 10);
      current_.number_in_range = errno != ERANGE;
      pos_ = end;
      return;
    }
    // Multi-char comparison symbols.
    for (const char* sym : {"<=", ">=", "!=", "<>"}) {
      if (input_.compare(pos_, 2, sym) == 0) {
        current_.kind = TokKind::kSymbol;
        current_.text = current_.raw = sym;
        pos_ += 2;
        return;
      }
    }
    current_.kind = TokKind::kSymbol;
    current_.text = current_.raw = std::string(1, c);
    ++pos_;
  }

  const std::string& input_;
  size_t pos_ = 0;
  Token current_;
};

class Parser {
 public:
  Parser(const Catalog& catalog, const std::string& sql)
      : catalog_(catalog), lexer_(sql) {}

  StatusOr<Query> Run() {
    if (!ExpectKeyword("SELECT")) return Fail();
    if (!ExpectKeyword("COUNT")) return Fail();
    if (!ExpectSymbol("(")) return Fail();
    if (!ExpectSymbol("*")) return Fail();
    if (!ExpectSymbol(")")) return Fail();
    if (!ExpectKeyword("FROM")) return Fail();
    if (!ParseTableList()) return Fail();

    std::vector<Predicate> predicates;
    if (lexer_.peek().kind != TokKind::kEnd) {
      if (!ExpectKeyword("WHERE")) return Fail();
      while (true) {
        if (!ParsePredicate(&predicates)) return Fail();
        if (lexer_.peek().kind == TokKind::kIdent &&
            lexer_.peek().text == "AND") {
          lexer_.Take();
          continue;
        }
        break;
      }
    }
    if (lexer_.peek().kind != TokKind::kEnd) {
      error_ = "unexpected trailing input at '" + lexer_.peek().raw + "'";
      return Fail();
    }

    // Every referenced table must have been listed in FROM.
    for (const Predicate& p : predicates) {
      for (const ColumnRef& c : p.attrs()) {
        if (!from_tables_.count(c.table)) {
          error_ = "table '" + catalog_.table(c.table).schema().name +
                   "' used in WHERE but missing from FROM";
          return Fail();
        }
      }
    }

    return Query(std::move(predicates));
  }

 private:
  Status Fail() const {
    return Status::InvalidArgument(error_.empty() ? "parse error" : error_);
  }

  bool ExpectKeyword(const std::string& kw) {
    if (lexer_.peek().kind == TokKind::kIdent && lexer_.peek().text == kw) {
      lexer_.Take();
      return true;
    }
    error_ = "expected " + kw + ", got '" + lexer_.peek().raw + "'";
    return false;
  }

  bool ExpectSymbol(const std::string& sym) {
    if (lexer_.peek().kind == TokKind::kSymbol &&
        lexer_.peek().text == sym) {
      lexer_.Take();
      return true;
    }
    error_ = "expected '" + sym + "', got '" + lexer_.peek().raw + "'";
    return false;
  }

  bool ParseTableList() {
    while (true) {
      if (lexer_.peek().kind != TokKind::kIdent) {
        error_ = "expected table name, got '" + lexer_.peek().raw + "'";
        return false;
      }
      const Token t = lexer_.Take();
      const TableId id = catalog_.FindTable(t.raw);
      if (id == kInvalidTableId) {
        error_ = "unknown table '" + t.raw + "'";
        return false;
      }
      if (!from_tables_.insert(id).second) {
        error_ = "table '" + t.raw + "' listed twice (self-joins are not "
                 "supported)";
        return false;
      }
      if (lexer_.peek().kind == TokKind::kSymbol &&
          lexer_.peek().text == ",") {
        lexer_.Take();
        continue;
      }
      return true;
    }
  }

  bool ParseColumn(ColumnRef* out) {
    if (lexer_.peek().kind != TokKind::kIdent) {
      error_ = "expected column reference, got '" + lexer_.peek().raw + "'";
      return false;
    }
    const Token table = lexer_.Take();
    if (!ExpectSymbol(".")) return false;
    if (lexer_.peek().kind != TokKind::kIdent) {
      error_ = "expected column name after '" + table.raw + ".'";
      return false;
    }
    const Token column = lexer_.Take();
    const TableId tid = catalog_.FindTable(table.raw);
    if (tid == kInvalidTableId) {
      error_ = "unknown table '" + table.raw + "'";
      return false;
    }
    const ColumnId cid =
        catalog_.table(tid).schema().FindColumn(column.raw);
    if (cid < 0) {
      error_ = "unknown column '" + table.raw + "." + column.raw + "'";
      return false;
    }
    *out = ColumnRef{tid, cid};
    return true;
  }

  bool ParsePredicate(std::vector<Predicate>* preds) {
    ColumnRef lhs;
    if (!ParseColumn(&lhs)) return false;
    const ColumnSchema& schema =
        catalog_.table(lhs.table)
            .schema()
            .columns[static_cast<size_t>(lhs.column)];

    const Token op = lexer_.Take();
    if (op.kind == TokKind::kIdent && op.text == "BETWEEN") {
      int64_t lo, hi;
      if (!ParseNumber(&lo)) return false;
      if (!ExpectKeyword("AND")) return false;
      if (!ParseNumber(&hi)) return false;
      if (lo > hi) {
        error_ = "BETWEEN bounds out of order";
        return false;
      }
      preds->push_back(Predicate::Filter(lhs, lo, hi));
      return true;
    }
    if (op.kind != TokKind::kSymbol) {
      error_ = "expected comparison operator, got '" + op.raw + "'";
      return false;
    }

    // col = col  (join)?
    if (op.text == "=" && lexer_.peek().kind == TokKind::kIdent) {
      // Lookahead for "ident . ident" means a column reference.
      ColumnRef rhs;
      if (!ParseColumn(&rhs)) return false;
      if (rhs.table == lhs.table) {
        error_ = "same-table column equality is not supported";
        return false;
      }
      preds->push_back(Predicate::Join(lhs, rhs));
      return true;
    }

    int64_t v;
    if (!ParseNumber(&v)) return false;
    int64_t lo = schema.min_value;
    int64_t hi = schema.max_value;
    if (op.text == "=") {
      lo = hi = v;
    } else if (op.text == "<") {
      // v-1/v+1 at the int64 extremes would be signed overflow (UB); a
      // strict comparison against the extreme selects nothing anyway.
      if (v == std::numeric_limits<int64_t>::min()) {
        error_ = "predicate on '" + schema.name + "' selects nothing";
        return false;
      }
      hi = v - 1;
    } else if (op.text == "<=") {
      hi = v;
    } else if (op.text == ">") {
      if (v == std::numeric_limits<int64_t>::max()) {
        error_ = "predicate on '" + schema.name + "' selects nothing";
        return false;
      }
      lo = v + 1;
    } else if (op.text == ">=") {
      lo = v;
    } else {
      error_ = "unsupported operator '" + op.raw + "'";
      return false;
    }
    if (lo > hi) {
      error_ = "predicate on '" + schema.name +
               "' selects nothing within the column's declared domain";
      return false;
    }
    preds->push_back(Predicate::Filter(lhs, lo, hi));
    return true;
  }

  bool ParseNumber(int64_t* out) {
    if (lexer_.peek().kind != TokKind::kNumber) {
      error_ = "expected a number, got '" + lexer_.peek().raw + "'";
      return false;
    }
    const Token t = lexer_.Take();
    if (!t.number_in_range) {
      error_ = "integer literal '" + t.raw + "' is out of range";
      return false;
    }
    *out = t.number;
    return true;
  }

  const Catalog& catalog_;
  Lexer lexer_;
  std::set<TableId> from_tables_;
  std::string error_;
};

}  // namespace

StatusOr<Query> ParseQuery(const Catalog& catalog, const std::string& sql) {
  return Parser(catalog, sql).Run();
}

}  // namespace condsel
