#include "tpcw/interactions.h"

namespace shareddb {
namespace tpcw {

namespace {

/// Recent-orders cutoff for the BestSellers analysis window — the stand-in
/// for the spec's "latest 3333 orders" (TPC-W BestSellers; paper §5.1).
constexpr int64_t kRecentWindowDays = 60;

int64_t RandItem(const TpcwScale& scale, Rng* rng) {
  return rng->Uniform(0, scale.num_items - 1);
}

int64_t RandSubject(const TpcwScale& scale, Rng* rng) {
  return rng->Uniform(0, scale.NumSubjects() - 1);
}

// Ensures the EB has a cart with at least one line; appends the statements
// that create it to `calls`.
void EnsureCart(const TpcwScale& scale, EbState* eb, IdAllocator* ids, Rng* rng,
                std::vector<StatementCall>* calls) {
  if (eb->cart_id < 0) {
    eb->cart_id = ids->Cart();
    calls->push_back({"insert_cart",
                      {Value::Int(eb->cart_id), Value::Int(eb->customer_id),
                       Value::Int(kTodayDay)}});
  }
  if (eb->cart_items.empty()) {
    const int64_t item = RandItem(scale, rng);
    const int64_t qty = rng->Uniform(1, 3);
    eb->cart_items.emplace_back(item, qty);
    calls->push_back({"insert_cart_line",
                      {Value::Int(eb->cart_id), Value::Int(item), Value::Int(qty)}});
  }
}

}  // namespace

std::vector<StatementCall> BuildInteraction(WebInteraction wi,
                                            const TpcwScale& scale, EbState* eb,
                                            IdAllocator* ids, Rng* rng) {
  std::vector<StatementCall> calls;
  const Value c_id = Value::Int(eb->customer_id);
  const Value today = Value::Int(kTodayDay);
  const Value cutoff = Value::Int(kTodayDay - kRecentWindowDays);

  switch (wi) {
    case WebInteraction::kHome:
      // Customer profile + promotional items (two queries, paper §5.1).
      calls.push_back({"customer_by_id", {c_id}});
      calls.push_back({"promo_items", {Value::Int(RandSubject(scale, rng))}});
      break;

    case WebInteraction::kNewProducts:
      calls.push_back({"new_products", {Value::Int(RandSubject(scale, rng))}});
      break;

    case WebInteraction::kBestSellers:
      calls.push_back(
          {"best_sellers", {Value::Int(RandSubject(scale, rng)), cutoff}});
      break;

    case WebInteraction::kProductDetail: {
      calls.push_back({"product_detail", {Value::Int(RandItem(scale, rng))}});
      // Related-item thumbnails: five fresh item ids per page view — a
      // parameter-only rebind of the items_by_id_list template every time.
      std::vector<Value> related;
      for (int i = 0; i < 5; ++i) related.push_back(Value::Int(RandItem(scale, rng)));
      calls.push_back({"items_by_id_list", std::move(related)});
      break;
    }

    case WebInteraction::kSearchRequest:
      // The search form shows promotions.
      calls.push_back({"promo_items", {Value::Int(RandSubject(scale, rng))}});
      break;

    case WebInteraction::kSearchResults:
      switch (rng->Uniform(0, 2)) {
        case 0:
          calls.push_back(
              {"search_by_subject", {Value::Int(RandSubject(scale, rng))}});
          break;
        case 1:
          calls.push_back(
              {"search_by_title",
               {Value::Str("title " + std::to_string(RandItem(scale, rng)) + " %")}});
          break;
        default:
          calls.push_back(
              {"search_by_author",
               {Value::Str("lname" +
                           std::to_string(rng->Uniform(0, scale.NumAuthors() - 1)) +
                           "%")}});
          break;
      }
      break;

    case WebInteraction::kShoppingCart: {
      // Add an item (or bump a quantity), then display the cart.
      if (eb->cart_id < 0) {
        eb->cart_id = ids->Cart();
        calls.push_back({"insert_cart",
                         {Value::Int(eb->cart_id), c_id, today}});
      }
      const int64_t item = RandItem(scale, rng);
      bool found = false;
      for (auto& [it, qty] : eb->cart_items) {
        if (it == item) {
          qty += 1;
          calls.push_back({"update_cart_line_qty",
                           {Value::Int(eb->cart_id), Value::Int(item),
                            Value::Int(qty)}});
          found = true;
          break;
        }
      }
      if (!found) {
        const int64_t qty = rng->Uniform(1, 3);
        eb->cart_items.emplace_back(item, qty);
        calls.push_back({"insert_cart_line",
                         {Value::Int(eb->cart_id), Value::Int(item),
                          Value::Int(qty)}});
      }
      calls.push_back({"cart_lines", {Value::Int(eb->cart_id)}});
      break;
    }

    case WebInteraction::kCustomerRegistration:
      if (rng->Bernoulli(0.2)) {
        // New customer.
        const int64_t nc = ids->Customer();
        eb->customer_id = nc;
        calls.push_back(
            {"insert_customer",
             {Value::Int(nc), Value::Str("user" + std::to_string(nc)),
              Value::Str(rng->AlphaString(4, 8)), Value::Str(rng->AlphaString(4, 10)),
              Value::Int(rng->Uniform(0, scale.NumAddresses() - 1)), today,
              Value::Int(kTodayDay + 730), Value::Double(0.1), Value::Double(0.0)}});
      } else {
        calls.push_back({"customer_by_uname",
                         {Value::Str("user" + std::to_string(eb->customer_id))}});
        calls.push_back({"refresh_customer", {c_id, Value::Int(kTodayDay + 730)}});
      }
      calls.push_back({"country_list", {}});
      break;

    case WebInteraction::kBuyRequest:
      EnsureCart(scale, eb, ids, rng, &calls);
      calls.push_back({"customer_full", {c_id}});
      calls.push_back({"cart_lines", {Value::Int(eb->cart_id)}});
      break;

    case WebInteraction::kBuyConfirm: {
      EnsureCart(scale, eb, ids, rng, &calls);
      const int64_t o_id = ids->Order();
      double total = 0;
      for (const auto& [item, qty] : eb->cart_items) {
        total += static_cast<double>(qty) * 10.0;
      }
      calls.push_back({"insert_order",
                       {Value::Int(o_id), c_id, today, Value::Double(total),
                        Value::Str("PENDING"),
                        Value::Int(rng->Uniform(0, scale.NumAddresses() - 1))}});
      for (const auto& [item, qty] : eb->cart_items) {
        calls.push_back({"insert_order_line",
                         {Value::Int(ids->OrderLine()), Value::Int(o_id),
                          Value::Int(item), Value::Int(qty), Value::Double(0.0)}});
        calls.push_back({"decrement_stock", {Value::Int(item), Value::Int(qty)}});
        if (rng->Bernoulli(0.1)) {
          calls.push_back({"restock_item", {Value::Int(item)}});
        }
      }
      calls.push_back({"insert_cc_xact",
                       {Value::Int(o_id), Value::Str("VISA"), Value::Double(total),
                        today}});
      calls.push_back({"update_order_status", {Value::Int(o_id),
                                               Value::Str("SHIPPED")}});
      calls.push_back({"clear_cart", {Value::Int(eb->cart_id)}});
      eb->last_order_id = o_id;
      eb->cart_id = -1;
      eb->cart_items.clear();
      break;
    }

    case WebInteraction::kOrderInquiry:
      calls.push_back({"customer_by_uname",
                       {Value::Str("user" + std::to_string(eb->customer_id))}});
      break;

    case WebInteraction::kOrderDisplay: {
      calls.push_back({"last_order", {c_id}});
      const int64_t o_id = eb->last_order_id >= 0
                               ? eb->last_order_id
                               : rng->Uniform(0, ids->next_order.load() - 1);
      calls.push_back({"order_lines", {Value::Int(o_id)}});
      break;
    }

    case WebInteraction::kAdminRequest:
      calls.push_back({"product_detail", {Value::Int(RandItem(scale, rng))}});
      break;

    case WebInteraction::kAdminConfirm: {
      const int64_t item = RandItem(scale, rng);
      calls.push_back({"update_item_admin",
                       {Value::Int(item),
                        Value::Double(1.0 + rng->Uniform(0, 9999) / 100.0), today}});
      calls.push_back(
          {"related_items", {Value::Int(RandSubject(scale, rng)), cutoff}});
      break;
    }
  }
  return calls;
}

}  // namespace tpcw
}  // namespace shareddb
