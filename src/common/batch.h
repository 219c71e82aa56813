// DQBatch: a vector of tuples in the data-query model (§3.1) — each tuple is
// annotated with the set of query ids interested in it. This is the unit of
// exchange between shared operators ("vector model of execution" §3.2).

#ifndef SHAREDDB_COMMON_BATCH_H_
#define SHAREDDB_COMMON_BATCH_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/query_id_set.h"
#include "common/schema.h"
#include "common/tuple.h"

// True in ThreadSanitizer builds (gcc defines __SANITIZE_THREAD__, clang
// exposes __has_feature(thread_sanitizer)).
#if defined(__SANITIZE_THREAD__)
#define SDB_THREAD_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDB_THREAD_SANITIZER 1
#endif
#endif
#ifndef SDB_THREAD_SANITIZER
#define SDB_THREAD_SANITIZER 0
#endif

namespace shareddb {

/// Batch of tuples + per-tuple query-id annotations, sharing one schema.
///
/// Invariant: tuples.size() == qids.size(); each tuple's arity matches the
/// schema. A tuple with an empty qid set is dead and may be dropped by any
/// operator (`Compact`).
struct DQBatch {
  SchemaPtr schema;
  std::vector<Tuple> tuples;
  std::vector<QueryIdSet> qids;

  DQBatch() = default;
  explicit DQBatch(SchemaPtr s) : schema(std::move(s)) {}

  size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty(); }

  void Reserve(size_t n) {
    tuples.reserve(n);
    qids.reserve(n);
  }

  /// Appends one annotated tuple.
  void Push(Tuple t, QueryIdSet q) {
    tuples.push_back(std::move(t));
    qids.push_back(std::move(q));
  }

  /// Appends all rows of another batch (schemas must match arity).
  void Append(const DQBatch& other);
  /// Move-append: steals the other batch's tuples. Adopts the other batch's
  /// storage outright when this batch is still empty (the single-input
  /// operator fast path).
  void Append(DQBatch&& other);

  /// Removes rows whose qid set is empty. Returns number removed.
  size_t Compact();

  /// Rows whose qid set contains `id`, as plain tuples (for result delivery).
  std::vector<Tuple> RowsFor(QueryId id) const;

  /// Total number of (tuple, query) memberships, i.e. the first-normal-form
  /// expansion size the NF² representation avoids (Figure 1 of the paper).
  size_t MembershipCount() const;

  /// Debug rendering, one row per line: `(v, ...) {qids}`.
  std::string ToString() const;

  /// Validates invariants (arity, parallel arrays); aborts on violation.
  void CheckValid() const;
};

/// Handle to a batch flowing along one dataflow edge.
///
/// A producer with several consumers publishes ONE batch as a
/// shared_ptr<const DQBatch>; every consumer edge carries a refcounted
/// handle instead of a copy (a copied batch shares its rows, since Tuple is
/// a refcounted handle, but still copies one handle and one QueryIdSet per
/// row). A consumer that only
/// reads uses view(); a consumer that wants to mutate calls Take(), which
/// moves when this handle is the only owner and copies otherwise
/// (copy-on-write).
class BatchRef {
 public:
  BatchRef() = default;
  /// Owning handle (single consumer / freshly built input).
  /*implicit*/ BatchRef(DQBatch b) : owned_(std::move(b)) {}
  /// Shared handle (multi-consumer fan-out).
  /*implicit*/ BatchRef(std::shared_ptr<const DQBatch> b) : shared_(std::move(b)) {}

  /// Read-only view. Valid while this handle lives.
  const DQBatch& view() const { return shared_ ? *shared_ : owned_; }

  size_t size() const { return view().size(); }
  bool empty() const { return view().empty(); }

  /// True when Take() will move instead of copy.
  bool unique() const { return !shared_ || shared_.use_count() == 1; }

  /// Takes ownership of the batch: moves when sole owner, copies when the
  /// batch is still shared with other consumers.
  DQBatch Take() {
    if (!shared_) return std::move(owned_);
    std::shared_ptr<const DQBatch> sp = std::move(shared_);
#if !SDB_THREAD_SANITIZER
    if (sp.use_count() == 1) {
      // Sole owner. use_count() is a relaxed load; fence so the releasing
      // decrements of the other (former) owners happen-before our mutation.
      // (TSan does not model fence-based synchronization and would flag this
      // correct pattern, so TSan builds always take the copy below.)
      std::atomic_thread_fence(std::memory_order_acquire);
      // The const-ness was only a sharing contract; the object was created
      // non-const by the producer, so casting it back is safe.
      return std::move(const_cast<DQBatch&>(*sp));
    }
#endif
    return *sp;  // copy-on-write: others still read the original
  }

 private:
  std::shared_ptr<const DQBatch> shared_;
  DQBatch owned_;
};

}  // namespace shareddb

#endif  // SHAREDDB_COMMON_BATCH_H_
