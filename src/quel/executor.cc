#include "quel/executor.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "obs/trace.h"
#include "quel/parser.h"
#include "relational/operators.h"

namespace atis::quel {

using relational::AsDouble;
using relational::Relation;
using relational::RowView;
using relational::RowWriter;
using relational::Schema;
using relational::Tuple;

namespace {

/// Evaluates an expression against one packed row of the bound relation.
Result<double> Eval(const Expr& e, const std::string& bound_var,
                    const RowView& row) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return e.number;
    case Expr::Kind::kFieldRef: {
      if (e.var != bound_var) {
        return Status::InvalidArgument("unbound range variable '" + e.var +
                                       "'");
      }
      const int idx = row.schema().FieldIndex(e.field);
      if (idx < 0) {
        return Status::InvalidArgument("no field '" + e.field + "'");
      }
      return row.Double(static_cast<size_t>(idx));
    }
    case Expr::Kind::kBinary: {
      ATIS_ASSIGN_OR_RETURN(double l, Eval(*e.lhs, bound_var, row));
      ATIS_ASSIGN_OR_RETURN(double r, Eval(*e.rhs, bound_var, row));
      switch (e.op) {
        case BinaryOp::kAdd:
          return l + r;
        case BinaryOp::kSub:
          return l - r;
        case BinaryOp::kMul:
          return l * r;
        case BinaryOp::kDiv:
          if (r == 0.0) return Status::InvalidArgument("division by zero");
          return l / r;
      }
      return Status::Internal("bad binary op");
    }
  }
  return Status::Internal("bad expression kind");
}

Result<bool> Matches(const Qualification& where,
                     const std::string& bound_var, const RowView& row) {
  for (const Comparison& cmp : where.terms) {
    ATIS_ASSIGN_OR_RETURN(double l, Eval(*cmp.lhs, bound_var, row));
    ATIS_ASSIGN_OR_RETURN(double r, Eval(*cmp.rhs, bound_var, row));
    bool ok = false;
    switch (cmp.op) {
      case CompareOp::kEq:
        ok = l == r;
        break;
      case CompareOp::kNe:
        ok = l != r;
        break;
      case CompareOp::kLt:
        ok = l < r;
        break;
      case CompareOp::kLe:
        ok = l <= r;
        break;
      case CompareOp::kGt:
        ok = l > r;
        break;
      case CompareOp::kGe:
        ok = l >= r;
        break;
    }
    if (!ok) return false;
  }
  return true;
}

/// Applies assignments to one packed row in place, in order: each
/// assignment sees the row as the previous ones left it (integer fields
/// are rounded).
Status Apply(const std::vector<Assignment>& values,
             const std::string& bound_var, RowWriter* row) {
  const Schema& schema = row->schema();
  for (const Assignment& a : values) {
    const int idx = schema.FieldIndex(a.field);
    if (idx < 0) {
      return Status::InvalidArgument("no field '" + a.field + "'");
    }
    ATIS_ASSIGN_OR_RETURN(double v, Eval(*a.value, bound_var, row->view()));
    const size_t field = static_cast<size_t>(idx);
    if (relational::IsIntegerType(schema.field(field).type)) {
      row->SetInt(field, static_cast<int64_t>(std::llround(v)));
    } else {
      row->SetDouble(field, v);
    }
  }
  return Status::OK();
}

}  // namespace

std::string QueryResult::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < columns.size(); ++i) {
    out << (i ? " | " : "") << std::setw(12) << columns[i];
  }
  out << "\n";
  for (const Tuple& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << (i ? " | " : "") << std::setw(12);
      if (const int64_t* v = std::get_if<int64_t>(&row[i])) {
        out << *v;
      } else {
        out << AsDouble(row[i]);
      }
    }
    out << "\n";
  }
  return out.str();
}

void QuelSession::RegisterRelation(const std::string& name,
                                   Relation* relation) {
  relations_[name] = relation;
}

Result<Relation*> QuelSession::Resolve(const std::string& var) const {
  const auto range = ranges_.find(var);
  if (range == ranges_.end()) {
    return Status::InvalidArgument("no RANGE declared for '" + var + "'");
  }
  const auto rel = relations_.find(range->second);
  if (rel == relations_.end()) {
    return Status::NotFound("relation '" + range->second +
                            "' is not registered");
  }
  return rel->second;
}

Result<QueryResult> QuelSession::Execute(const std::string& statement) {
  ATIS_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  return Execute(stmt);
}

namespace {

std::string_view StatementName(Statement::Kind kind) {
  switch (kind) {
    case Statement::Kind::kRange:
      return "RANGE";
    case Statement::Kind::kRetrieve:
      return "RETRIEVE";
    case Statement::Kind::kAppend:
      return "APPEND";
    case Statement::Kind::kDelete:
      return "DELETE";
    case Statement::Kind::kReplace:
      return "REPLACE";
  }
  return "?";
}

}  // namespace

Result<QueryResult> QuelSession::Execute(const Statement& stmt) {
  obs::ScopedSpan span(std::string(StatementName(stmt.kind)), "statement");
  QueryResult out;
  out.kind = stmt.kind;
  switch (stmt.kind) {
    case Statement::Kind::kRange: {
      if (relations_.count(stmt.range.relation) == 0) {
        return Status::NotFound("relation '" + stmt.range.relation +
                                "' is not registered");
      }
      ranges_[stmt.range.var] = stmt.range.relation;
      return out;
    }
    case Statement::Kind::kRetrieve: {
      ATIS_ASSIGN_OR_RETURN(Relation * rel, Resolve(stmt.retrieve.var));
      const Schema& schema = rel->schema();
      std::vector<int> projection;
      if (stmt.retrieve.all) {
        for (size_t i = 0; i < schema.num_fields(); ++i) {
          projection.push_back(static_cast<int>(i));
          out.columns.push_back(schema.field(i).name);
        }
      } else {
        for (const std::string& f : stmt.retrieve.fields) {
          const int idx = schema.FieldIndex(f);
          if (idx < 0) {
            return Status::InvalidArgument("no field '" + f + "'");
          }
          projection.push_back(idx);
          out.columns.push_back(f);
        }
      }
      Status eval_error = Status::OK();
      ATIS_ASSIGN_OR_RETURN(
          auto matches,
          relational::SelectScan(
              *rel, [&](const RowView& row) {
                auto m =
                    Matches(stmt.retrieve.where, stmt.retrieve.var, row);
                if (!m.ok()) {
                  eval_error = m.status();
                  return false;
                }
                return *m;
              }));
      ATIS_RETURN_NOT_OK(eval_error);
      for (const auto& m : matches) {
        Tuple row;
        row.reserve(projection.size());
        for (const int idx : projection) {
          row.push_back(m.tuple[static_cast<size_t>(idx)]);
        }
        out.rows.push_back(std::move(row));
      }
      return out;
    }
    case Statement::Kind::kAppend: {
      const auto rel = relations_.find(stmt.append.relation);
      if (rel == relations_.end()) {
        return Status::NotFound("relation '" + stmt.append.relation +
                                "' is not registered");
      }
      const Schema& schema = rel->second->schema();
      // Unassigned fields default to zero.
      std::vector<uint8_t> packed(schema.tuple_size(), 0);
      RowWriter row(schema, packed);
      ATIS_RETURN_NOT_OK(Apply(stmt.append.values, /*bound_var=*/"", &row));
      const Tuple tuple = schema.Unpack(packed.data());
      ATIS_RETURN_NOT_OK(relational::Append(rel->second, tuple));
      out.affected = 1;
      return out;
    }
    case Statement::Kind::kDelete: {
      ATIS_ASSIGN_OR_RETURN(Relation * rel, Resolve(stmt.del.var));
      Status eval_error = Status::OK();
      ATIS_ASSIGN_OR_RETURN(
          out.affected,
          relational::DeleteWhere(rel, [&](const RowView& row) {
            auto m = Matches(stmt.del.where, stmt.del.var, row);
            if (!m.ok()) {
              eval_error = m.status();
              return false;
            }
            return *m;
          }));
      ATIS_RETURN_NOT_OK(eval_error);
      return out;
    }
    case Statement::Kind::kReplace: {
      ATIS_ASSIGN_OR_RETURN(Relation * rel, Resolve(stmt.replace.var));
      Status eval_error = Status::OK();
      ATIS_ASSIGN_OR_RETURN(
          out.affected,
          relational::Replace(
              rel,
              [&](const RowView& row) {
                auto m = Matches(stmt.replace.where, stmt.replace.var, row);
                if (!m.ok()) {
                  eval_error = m.status();
                  return false;
                }
                return *m;
              },
              [&](RowWriter& row) {
                const Status st =
                    Apply(stmt.replace.values, stmt.replace.var, &row);
                if (!st.ok()) eval_error = st;
              }));
      ATIS_RETURN_NOT_OK(eval_error);
      return out;
    }
  }
  return Status::Internal("bad statement kind");
}

}  // namespace atis::quel
