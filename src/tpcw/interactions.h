// Web-interaction logic: maps each of the 14 TPC-W web interactions to its
// sequence of prepared-statement calls (paper §5.1: "each client interaction
// is translated to a number of database queries, depending on the type of
// the interaction").
//
// Simplification: parameters are derived from client-tracked state (the
// emulated browser remembers its customer id, its cart contents, its last
// order id) plus random draws — mirroring the paper's setup where "the
// clients also ran the application logic". This
// makes an interaction's statement list computable up front, which both the
// synchronous runner and the virtual-time simulator consume.

#ifndef SHAREDDB_TPCW_INTERACTIONS_H_
#define SHAREDDB_TPCW_INTERACTIONS_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "tpcw/datagen.h"
#include "tpcw/mixes.h"
#include "tpcw/params.h"

namespace shareddb {
namespace tpcw {

/// One statement invocation.
struct StatementCall {
  std::string statement;
  std::vector<Value> params;
};

/// Client-side state of one emulated browser.
struct EbState {
  int64_t customer_id = 0;
  int64_t cart_id = -1;
  std::vector<std::pair<int64_t, int64_t>> cart_items;  // (item id, qty)
  int64_t last_order_id = -1;
};

/// Builds the statement sequence for one interaction, mutating the EB state
/// (cart contents, allocated ids). Statements execute strictly in order.
std::vector<StatementCall> BuildInteraction(WebInteraction wi,
                                            const TpcwScale& scale, EbState* eb,
                                            IdAllocator* ids, Rng* rng);

}  // namespace tpcw
}  // namespace shareddb

#endif  // SHAREDDB_TPCW_INTERACTIONS_H_
