// TPC-W scale parameters (paper §5.1). The spec sizes tables from two
// knobs: the number of emulated browsers (EBs) and the item-table
// cardinality. Defaults here are scaled down ~10x relative to the paper's
// runs so experiments complete quickly on one core; every bench prints the
// scale it used. Shapes (who wins, crossovers) depend on relative per-query
// work, not absolute table sizes.

#ifndef SHAREDDB_TPCW_PARAMS_H_
#define SHAREDDB_TPCW_PARAMS_H_

#include <cstdint>

namespace shareddb {
namespace tpcw {

/// Database population knobs (spec ratios, scaled).
struct TpcwScale {
  int num_items = 1000;     // spec: 1k/10k/100k/1M/10M
  int num_ebs = 1;          // drives customer count
  int customers_per_eb = 288;  // spec: 2880; scaled 10x down

  int NumCustomers() const { return num_ebs * customers_per_eb; }
  int NumAddresses() const { return 2 * NumCustomers(); }
  int NumAuthors() const { return num_items / 4 > 0 ? num_items / 4 : 1; }
  int NumOrders() const { return NumCustomers() * 9 / 10; }
  int AvgOrderLines() const { return 3; }
  int NumCountries() const { return 92; }
  int NumSubjects() const { return 24; }  // spec: 24 subject strings
};

/// Day numbers (DATE columns are ints: days since an epoch).
inline constexpr int64_t kEpochDay = 0;
inline constexpr int64_t kTodayDay = 7300;  // ~20 years of history

}  // namespace tpcw
}  // namespace shareddb

#endif  // SHAREDDB_TPCW_PARAMS_H_
