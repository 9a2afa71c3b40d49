#include "condsel/api.h"

#include <algorithm>
#include <cstdlib>

#include "condsel/analysis/auditor.h"
#include "condsel/common/macros.h"
#include "condsel/common/numeric.h"
#include "condsel/harness/metrics.h"
#include "condsel/selectivity/error_function.h"
#include "condsel/selectivity/atomic_provider.h"

namespace condsel {
namespace {

std::string ColumnName(const Catalog& catalog, ColumnRef c) {
  if (!catalog.HasColumn(c)) {
    return "(" + std::to_string(c.table) + "," + std::to_string(c.column) +
           ")";
  }
  const Table& t = catalog.table(c.table);
  return t.schema().name + "." +
         t.schema().columns[static_cast<size_t>(c.column)].name;
}

// Debug builds audit every estimate unless CONDSEL_AUDIT says otherwise;
// release builds stay opt-in.
bool DefaultAuditMode() {
  if (const char* env = std::getenv("CONDSEL_AUDIT");
      env != nullptr && env[0] != '\0') {
    std::string v = env;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return v != "0" && v != "false" && v != "no" && v != "off";
  }
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

}  // namespace

struct Estimator::Session {
  // The query must live as long as its memoized search: keep a copy the
  // matcher and DP point at.
  explicit Session(Query q) : query(std::move(q)) {}

  Query query;
  std::unique_ptr<SitMatcher> matcher;
  std::unique_ptr<AtomicSelectivityProvider> provider;
  // Keeps the session's decomposition skeleton alive independently of
  // the cache that handed it out.
  std::shared_ptr<ShapeCache::Entry> shape;
  std::unique_ptr<GetSelectivity> gs;
  // Derivation recording + audit bookkeeping (audit mode only). The DAG
  // only grows on memo misses, so re-auditing is skipped while repeated
  // sub-plan requests hit the memo.
  DerivationDag dag;
  size_t audited_nodes = 0;
};

Estimator::Estimator(const Catalog* catalog, const SitPool* pool,
                     Ranking ranking, EstimationBudget budget,
                     ShapeCache* shape_cache)
    : catalog_(catalog),
      pool_(pool),
      ranking_(ranking),
      budget_(budget),
      audit_(DefaultAuditMode()),
      shape_cache_(shape_cache != nullptr ? shape_cache : &own_shapes_) {
  CONDSEL_CHECK(catalog != nullptr);  // invariant: constructor contract
  CONDSEL_CHECK(pool != nullptr);     // invariant: constructor contract
}

Estimator::~Estimator() = default;

Status Estimator::ValidatePool() const {
  if (pool_validated_) return pool_status_;
  pool_validated_ = true;
  // A pool is only meaningful against its own catalog; one deserialized
  // against a different database would make the matcher dereference
  // out-of-range table/column ids (formerly a CHECK-abort deep inside
  // sit_matcher / atomic_provider).
  for (const Sit& sit : pool_->sits()) {
    if (!catalog_->HasColumn(sit.attr) ||
        (sit.is_multidim() && !catalog_->HasColumn(sit.attr2))) {
      pool_status_ = Status::FailedPrecondition(
          "SIT pool references column " + ColumnName(*catalog_, sit.attr) +
          " outside the catalog (pool built against a different database?)");
      break;
    }
    bool bad_expr = false;
    for (const Predicate& p : sit.expression) {
      for (const ColumnRef& c : p.attrs()) {
        if (!catalog_->HasColumn(c)) {
          bad_expr = true;
          break;
        }
      }
      if (bad_expr) break;
    }
    if (bad_expr) {
      pool_status_ = Status::FailedPrecondition(
          "SIT pool expression references a column outside the catalog");
      break;
    }
  }
  return pool_status_;
}

Status Estimator::ValidateQuery(const Query& query, PredSet subset) const {
  CONDSEL_RETURN_IF_ERROR(ValidatePool());
  if ((subset & ~query.all_predicates()) != 0) {
    return Status::InvalidArgument(
        "predicate set is not a subset of the query's predicates");
  }
  // Only the requested predicates matter: a query whose join columns lack
  // base histograms can still serve filter-only sub-plan requests.
  for (int i : SetBits(subset)) {
    const Predicate& p = query.predicate(i);
    for (const ColumnRef& c : p.attrs()) {
      if (!catalog_->HasColumn(c)) {
        return Status::InvalidArgument(
            "predicate " + std::to_string(i) + " references column " +
            ColumnName(*catalog_, c) + " outside the catalog");
      }
      if (pool_->FindBase(c) == nullptr) {
        return Status::FailedPrecondition(
            "SIT pool has no base histogram for column " +
            ColumnName(*catalog_, c));
      }
    }
    if (p.is_filter() && p.lo() > p.hi()) {
      return Status::InvalidArgument("predicate " + std::to_string(i) +
                                     " has an empty range");
    }
  }
  return Status::Ok();
}

Estimator::Session& Estimator::SessionFor(const Query& query) {
  // Keyed by the *ordered* predicate list: PredSet masks are positional,
  // so only queries with identical predicate ordering may share a
  // memoized search.
  const std::vector<Predicate>& key = query.predicates();
  auto it = sessions_.find(key);
  if (it != sessions_.end()) return *it->second;

  auto session = std::make_unique<Session>(query);
  session->matcher = std::make_unique<SitMatcher>(pool_);
  session->matcher->BindQuery(&session->query);
  // Leaked singletons: error functions are stateless, and static objects
  // with non-trivial destructors are avoided (see style guide).
  static const NIndError& n_ind = *new NIndError();
  static const DiffError& diff = *new DiffError();
  const ErrorFunction* fn =
      ranking_ == Ranking::kNInd
          ? static_cast<const ErrorFunction*>(&n_ind)
          : static_cast<const ErrorFunction*>(&diff);
  session->provider =
      std::make_unique<AtomicSelectivityProvider>(session->matcher.get(), fn);
  session->shape = shape_cache_->Acquire(session->query);
  session->gs = std::make_unique<GetSelectivity>(
      &session->query, session->provider.get(), &budget_,
      session->shape.get());
  if (audit_) session->gs->set_recorder(&session->dag);
  return *sessions_.emplace(key, std::move(session)).first->second;
}

void Estimator::AuditSession(Session& session) {
  if (session.gs->recorder() == nullptr) return;
  if (session.dag.size() == session.audited_nodes) return;
  session.audited_nodes = session.dag.size();
  const AuditReport report =
      DerivationAuditor().Audit(session.query, session.dag,
                                session.gs->stats());
  // A violation is a library bug, not user error (those surface as Status
  // before estimation) — invariant: completed estimates audit clean.
  CONDSEL_CHECK_MSG(report.ok(), report.ToString().c_str());
}

StatusOr<double> Estimator::TryEstimateSelectivity(const Query& query,
                                                   PredSet p) {
  if (Status s = ValidateQuery(query, p); !s.ok()) return s;
  Session& session = SessionFor(query);
  const double sel =
      SanitizeSelectivity(session.gs->Compute(p).selectivity);
  AuditSession(session);
  return sel;
}

StatusOr<double> Estimator::TryEstimateSelectivity(const Query& query) {
  return TryEstimateSelectivity(query, query.all_predicates());
}

StatusOr<double> Estimator::TryEstimateSelectivityStrict(const Query& query,
                                                         PredSet p) {
  StatusOr<double> sel = TryEstimateSelectivity(query, p);
  if (!sel.ok()) return sel;
  const GsStats* stats = StatsFor(query);
  // invariant: the successful estimate above created this query's session
  CONDSEL_CHECK(stats != nullptr);
  if (stats->budget_exhausted || stats->degraded_subproblems > 0) {
    return Status::ResourceExhausted(
        "estimation degraded: budget exhausted with " +
        std::to_string(stats->degraded_subproblems) +
        " subproblem(s) on the independence fallback (raise "
        "EstimationBudget or accept the degraded estimate via "
        "TryEstimateSelectivity)");
  }
  return sel;
}

StatusOr<double> Estimator::TryEstimateCardinality(const Query& query,
                                                   PredSet p) {
  StatusOr<double> sel = TryEstimateSelectivity(query, p);
  if (!sel.ok()) return sel;
  return CardinalityFromSelectivity(*catalog_, query, p, *sel);
}

StatusOr<double> Estimator::TryEstimateCardinality(const Query& query) {
  return TryEstimateCardinality(query, query.all_predicates());
}

StatusOr<std::string> Estimator::TryExplain(const Query& query) {
  if (Status s = ValidateQuery(query, query.all_predicates()); !s.ok()) {
    return s;
  }
  Session& session = SessionFor(query);
  session.gs->Compute(query.all_predicates());
  AuditSession(session);
  return session.gs->Explain(query.all_predicates());
}

const GsStats* Estimator::StatsFor(const Query& query) const {
  auto it = sessions_.find(query.predicates());
  return it == sessions_.end() ? nullptr : &it->second->gs->stats();
}

void Estimator::ClearCache() { sessions_.clear(); }

}  // namespace condsel
