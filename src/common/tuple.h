// Tuple: one row of values. Row-oriented on purpose — SharedDB's operators
// pass whole tuples through the dataflow network and annotate them with
// query-id sets; a columnar layout buys little for this processing model
// and the paper's engine is row-oriented.
//
// A Tuple is an immutable, refcounted handle to its row. One allocation
// holds a {refcount, size} header followed by the Values; copying a Tuple
// bumps the count and never allocates, so a stored row, the ClockScan match
// that reads it, every shared operator's batch and every query's result set
// point at the same cells. Tuple has no mutating member: code that makes a
// new row builds a std::vector<Value> (or uses Build) and wraps it.
//
// Ownership and threads. The last handle to go frees the row. Handles are
// copied and dropped concurrently by the heartbeat thread, TaskPool workers
// and net loops (a ResultSet row may outlive the table slot it came from,
// e.g. across Table::Vacuum). A copy is a relaxed increment: the new handle
// is derived from a live one, so the row cannot be freed meanwhile, and the
// cells are published by whatever hands the handle to another thread (a
// latch, the pool's queues, a completion sink). A release is an acq_rel
// decrement, so every reader's accesses happen-before the final owner's
// destruction of the cells.

#ifndef SHAREDDB_COMMON_TUPLE_H_
#define SHAREDDB_COMMON_TUPLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"

namespace shareddb {

class Tuple {
 public:
  using value_type = Value;
  using const_iterator = const Value*;
  using iterator = const_iterator;

  Tuple() noexcept = default;
  /*implicit*/ Tuple(std::initializer_list<Value> values) : Tuple() {
    rep_ = Allocate(values.size());
    for (const Value& v : values) Emplace(v);
  }
  /*implicit*/ Tuple(std::vector<Value> values) : Tuple() {
    rep_ = Allocate(values.size());
    for (Value& v : values) Emplace(std::move(v));
  }

  Tuple(const Tuple& o) noexcept : rep_(o.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Tuple(Tuple&& o) noexcept : rep_(std::exchange(o.rep_, nullptr)) {}
  Tuple& operator=(Tuple o) noexcept {
    std::swap(rep_, o.rep_);
    return *this;
  }
  ~Tuple() { Release(); }

  /// A new row of `n` cells; cell i is `fill(i)`, called in order.
  template <typename Fill>
  static Tuple Build(size_t n, Fill&& fill) {
    Tuple t;
    t.rep_ = Allocate(n);
    for (size_t i = 0; i < n; ++i) t.Emplace(fill(i));
    return t;
  }

  size_t size() const { return rep_ != nullptr ? rep_->size : 0; }
  bool empty() const { return size() == 0; }
  const Value* data() const { return rep_ != nullptr ? cells() : nullptr; }
  const Value* begin() const { return data(); }
  const Value* end() const { return data() + size(); }
  const Value& operator[](size_t i) const {
    SDB_DCHECK(i < size());
    return cells()[i];
  }
  const Value& at(size_t i) const {
    SDB_CHECK(i < size());
    return cells()[i];
  }

  /// Field-wise Value equality (INT 1 == DOUBLE 1.0, NULL == NULL), the
  /// semantics std::vector<Value>::operator== had.
  friend bool operator==(const Tuple& a, const Tuple& b) {
    if (a.rep_ == b.rep_) return true;
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }

 private:
  // `size` counts the cells constructed so far, so a row whose fill throws
  // part-way destroys exactly those.
  struct Rep {
    std::atomic<uint32_t> refs;
    uint32_t size;
  };
  static_assert(sizeof(Rep) % alignof(Value) == 0, "cells follow the header");

  // Room for `n` cells, none constructed yet; nullptr for n == 0, since the
  // empty row needs no storage.
  static Rep* Allocate(size_t n) {
    if (n == 0) return nullptr;
    SDB_CHECK(n <= UINT32_MAX);
    Rep* r = static_cast<Rep*>(::operator new(sizeof(Rep) + n * sizeof(Value)));
    new (&r->refs) std::atomic<uint32_t>(1);
    r->size = 0;
    return r;
  }

  // Construction only: appends a cell into the room Allocate made.
  template <typename V>
  void Emplace(V&& v) {
    new (cells() + rep_->size) Value(std::forward<V>(v));
    ++rep_->size;
  }

  Value* cells() const { return reinterpret_cast<Value*>(rep_ + 1); }

  void Release() noexcept {
    if (rep_ == nullptr || rep_->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    Value* c = cells();
    for (uint32_t i = 0; i < rep_->size; ++i) c[i].~Value();
    ::operator delete(rep_);
  }

  Rep* rep_ = nullptr;
};

/// Concatenates two tuples (join output).
inline Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  const size_t na = a.size();
  return Tuple::Build(na + b.size(),
                      [&](size_t i) -> const Value& { return i < na ? a[i] : b[i - na]; });
}

/// Renders "(v1, v2, ...)".
inline std::string TupleToString(const Tuple& t) {
  std::string s = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) s += ", ";
    s += t[i].ToString();
  }
  s += ")";
  return s;
}

/// Field-wise equality.
inline bool TuplesEqual(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

/// Lexicographic comparison over all fields (stable total order for tests).
inline bool TupleLess(const Tuple& a, const Tuple& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

/// Combined hash of all fields.
inline uint64_t TupleHash(const Tuple& t) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : t) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace shareddb

#endif  // SHAREDDB_COMMON_TUPLE_H_
