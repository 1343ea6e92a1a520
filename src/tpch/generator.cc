#include "tpch/generator.h"

#include <cmath>

namespace ecodb::tpch {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using storage::ColumnData;

namespace {

constexpr const char* kOrderStatuses[] = {"O", "F", "P"};
constexpr const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                       "4-NOT SPECIFIED", "5-LOW"};
constexpr const char* kReturnFlags[] = {"R", "A", "N"};
constexpr const char* kMktSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                        "HOUSEHOLD", "MACHINERY"};
constexpr const char* kBrands[] = {"Brand#11", "Brand#22", "Brand#33",
                                   "Brand#44", "Brand#55"};

// Per-table seed salts: each generator mixes its own constant into the
// config seed so tables draw from independent streams. Adding a table can
// therefore never change the bytes of an existing one (the deterministic
// Joules baselines in BENCH_engine.json depend on that).
constexpr uint64_t kLineitemSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kCustomerSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPartSalt = 0x165667b19e3779f9ULL;
constexpr uint64_t kSupplierSalt = 0x27d4eb2f165667c5ULL;
constexpr uint64_t kPartsuppSalt = 0x85ebca6b27d4eb4fULL;

uint64_t OrderCount(const TpchConfig& config) {
  return static_cast<uint64_t>(config.scale_factor *
                               static_cast<double>(config.orders_per_sf));
}

}  // namespace

TpchRowCounts RowCountsFor(const TpchConfig& config) {
  TpchRowCounts counts;
  counts.orders = OrderCount(config);
  counts.customers = std::max<uint64_t>(1, counts.orders / 10);
  counts.parts = std::max<uint64_t>(1, counts.orders / 8);
  counts.suppliers = std::max<uint64_t>(1, counts.orders / 150);
  counts.partsupp = counts.parts * 2;
  return counts;
}

Schema OrdersSchema() {
  return Schema({
      Column{"o_orderkey", DataType::kInt64, 8},
      Column{"o_custkey", DataType::kInt64, 8},
      Column{"o_orderstatus", DataType::kString, 1},
      Column{"o_totalprice", DataType::kDouble, 8},
      Column{"o_orderdate", DataType::kDate, 8},
      Column{"o_orderpriority", DataType::kString, 12},
      Column{"o_shippriority", DataType::kInt64, 8},
  });
}

Schema LineitemSchema() {
  return Schema({
      Column{"l_orderkey", DataType::kInt64, 8},
      Column{"l_partkey", DataType::kInt64, 8},
      Column{"l_suppkey", DataType::kInt64, 8},
      Column{"l_quantity", DataType::kDouble, 8},
      Column{"l_extendedprice", DataType::kDouble, 8},
      Column{"l_discount", DataType::kDouble, 8},
      Column{"l_returnflag", DataType::kString, 1},
      Column{"l_shipdate", DataType::kDate, 8},
  });
}

Schema CustomerSchema() {
  return Schema({
      Column{"c_custkey", DataType::kInt64, 8},
      Column{"c_name", DataType::kString, 18},
      Column{"c_nationkey", DataType::kInt64, 8},
      Column{"c_acctbal", DataType::kDouble, 8},
      Column{"c_mktsegment", DataType::kString, 10},
  });
}

Schema PartSchema() {
  return Schema({
      Column{"p_partkey", DataType::kInt64, 8},
      Column{"p_name", DataType::kString, 32},
      Column{"p_brand", DataType::kString, 8},
      Column{"p_size", DataType::kInt64, 8},
      Column{"p_retailprice", DataType::kDouble, 8},
  });
}

Schema SupplierSchema() {
  return Schema({
      Column{"s_suppkey", DataType::kInt64, 8},
      Column{"s_name", DataType::kString, 18},
      Column{"s_nationkey", DataType::kInt64, 8},
      Column{"s_acctbal", DataType::kDouble, 8},
  });
}

Schema PartsuppSchema() {
  return Schema({
      Column{"ps_partkey", DataType::kInt64, 8},
      Column{"ps_suppkey", DataType::kInt64, 8},
      Column{"ps_availqty", DataType::kInt64, 8},
      Column{"ps_supplycost", DataType::kDouble, 8},
  });
}

std::vector<ColumnData> GenerateOrders(const TpchConfig& config) {
  const uint64_t n = OrderCount(config);
  Rng rng(config.seed);

  std::vector<ColumnData> cols(7);
  ColumnData& okey = cols[0];
  ColumnData& ckey = cols[1];
  ColumnData& status = cols[2];
  ColumnData& price = cols[3];
  ColumnData& date = cols[4];
  ColumnData& priority = cols[5];
  ColumnData& shipprio = cols[6];
  okey.type = DataType::kInt64;
  ckey.type = DataType::kInt64;
  status.type = DataType::kString;
  price.type = DataType::kDouble;
  date.type = DataType::kDate;
  priority.type = DataType::kString;
  shipprio.type = DataType::kInt64;

  okey.i64.reserve(n);
  ckey.i64.reserve(n);
  status.str.reserve(n);
  price.f64.reserve(n);
  date.i64.reserve(n);
  priority.str.reserve(n);
  shipprio.i64.reserve(n);

  const uint64_t customers = RowCountsFor(config).customers;
  for (uint64_t i = 0; i < n; ++i) {
    okey.i64.push_back(static_cast<int64_t>(i + 1));  // clustered key
    ckey.i64.push_back(
        rng.Uniform(1, static_cast<int64_t>(customers)));
    status.str.push_back(kOrderStatuses[rng.Uniform(0, 2)]);
    // TPC-H prices cluster between ~850 and ~560000.
    price.f64.push_back(
        std::round((850.0 + rng.NextDouble() * 559150.0) * 100.0) / 100.0);
    date.i64.push_back(rng.Uniform(kDateEpochStart,
                                   kDateEpochStart + kDateRangeDays - 1));
    priority.str.push_back(kPriorities[rng.Uniform(0, 4)]);
    shipprio.i64.push_back(0);  // constant in TPC-H — maximally compressible
  }
  return cols;
}

std::vector<ColumnData> GenerateLineitem(const TpchConfig& config) {
  const uint64_t orders = OrderCount(config);
  Rng rng(config.seed ^ kLineitemSalt);

  std::vector<ColumnData> cols(8);
  ColumnData& okey = cols[0];
  ColumnData& pkey = cols[1];
  ColumnData& skey = cols[2];
  ColumnData& qty = cols[3];
  ColumnData& eprice = cols[4];
  ColumnData& disc = cols[5];
  ColumnData& rflag = cols[6];
  ColumnData& sdate = cols[7];
  okey.type = DataType::kInt64;
  pkey.type = DataType::kInt64;
  skey.type = DataType::kInt64;
  qty.type = DataType::kDouble;
  eprice.type = DataType::kDouble;
  disc.type = DataType::kDouble;
  rflag.type = DataType::kString;
  sdate.type = DataType::kDate;

  const uint64_t parts = RowCountsFor(config).parts;
  const uint64_t supps = RowCountsFor(config).suppliers;
  for (uint64_t o = 1; o <= orders; ++o) {
    // 1..7 lineitems per order, mean ~ lineitems_per_order.
    const int64_t max_items = std::max<int64_t>(
        1, static_cast<int64_t>(2.0 * config.lineitems_per_order) - 1);
    const int64_t items = rng.Uniform(1, max_items);
    for (int64_t l = 0; l < items; ++l) {
      okey.i64.push_back(static_cast<int64_t>(o));
      pkey.i64.push_back(rng.Uniform(1, static_cast<int64_t>(parts)));
      skey.i64.push_back(rng.Uniform(1, static_cast<int64_t>(supps)));
      const double quantity = static_cast<double>(rng.Uniform(1, 50));
      qty.f64.push_back(quantity);
      eprice.f64.push_back(
          std::round(quantity * (901.0 + rng.NextDouble() * 100000.0)) /
          100.0 * 100.0 / 100.0);
      disc.f64.push_back(
          static_cast<double>(rng.Uniform(0, 10)) / 100.0);  // 0.00-0.10
      rflag.str.push_back(kReturnFlags[rng.Uniform(0, 2)]);
      sdate.i64.push_back(rng.Uniform(kDateEpochStart,
                                      kDateEpochStart + kDateRangeDays - 1));
    }
  }
  return cols;
}

std::vector<ColumnData> GenerateCustomer(const TpchConfig& config) {
  const uint64_t n = RowCountsFor(config).customers;
  Rng rng(config.seed ^ kCustomerSalt);

  std::vector<ColumnData> cols(5);
  ColumnData& key = cols[0];
  ColumnData& name = cols[1];
  ColumnData& nation = cols[2];
  ColumnData& acctbal = cols[3];
  ColumnData& segment = cols[4];
  key.type = DataType::kInt64;
  name.type = DataType::kString;
  nation.type = DataType::kInt64;
  acctbal.type = DataType::kDouble;
  segment.type = DataType::kString;

  for (uint64_t i = 1; i <= n; ++i) {
    key.i64.push_back(static_cast<int64_t>(i));  // dense 1..n: FK target
    name.str.push_back("Customer#" + std::to_string(i));
    nation.i64.push_back(rng.Uniform(0, 24));  // 25 TPC-H nations
    // TPC-H account balances span [-999.99, 9999.99].
    acctbal.f64.push_back(
        std::round((-999.99 + rng.NextDouble() * 10999.98) * 100.0) / 100.0);
    segment.str.push_back(kMktSegments[rng.Uniform(0, 4)]);
  }
  return cols;
}

std::vector<ColumnData> GeneratePart(const TpchConfig& config) {
  const uint64_t n = RowCountsFor(config).parts;
  Rng rng(config.seed ^ kPartSalt);

  std::vector<ColumnData> cols(5);
  ColumnData& key = cols[0];
  ColumnData& name = cols[1];
  ColumnData& brand = cols[2];
  ColumnData& size = cols[3];
  ColumnData& price = cols[4];
  key.type = DataType::kInt64;
  name.type = DataType::kString;
  brand.type = DataType::kString;
  size.type = DataType::kInt64;
  price.type = DataType::kDouble;

  for (uint64_t i = 1; i <= n; ++i) {
    key.i64.push_back(static_cast<int64_t>(i));
    name.str.push_back("part moccasin" + std::to_string(rng.Uniform(0, 999)));
    brand.str.push_back(kBrands[rng.Uniform(0, 4)]);
    size.i64.push_back(rng.Uniform(1, 50));
    // TPC-H: p_retailprice = 900 + (partkey/10 mod 2001) + 100*(partkey mod
    // 1000) / 1000 — structural, not random.
    price.f64.push_back(
        900.0 + static_cast<double>((i / 10) % 2001) +
        static_cast<double>(i % 1000) / 10.0);
  }
  return cols;
}

std::vector<ColumnData> GenerateSupplier(const TpchConfig& config) {
  const uint64_t n = RowCountsFor(config).suppliers;
  Rng rng(config.seed ^ kSupplierSalt);

  std::vector<ColumnData> cols(4);
  ColumnData& key = cols[0];
  ColumnData& name = cols[1];
  ColumnData& nation = cols[2];
  ColumnData& acctbal = cols[3];
  key.type = DataType::kInt64;
  name.type = DataType::kString;
  nation.type = DataType::kInt64;
  acctbal.type = DataType::kDouble;

  for (uint64_t i = 1; i <= n; ++i) {
    key.i64.push_back(static_cast<int64_t>(i));
    name.str.push_back("Supplier#" + std::to_string(i));
    nation.i64.push_back(rng.Uniform(0, 24));
    acctbal.f64.push_back(
        std::round((-999.99 + rng.NextDouble() * 10999.98) * 100.0) / 100.0);
  }
  return cols;
}

std::vector<ColumnData> GeneratePartsupp(const TpchConfig& config) {
  const TpchRowCounts counts = RowCountsFor(config);
  Rng rng(config.seed ^ kPartsuppSalt);

  std::vector<ColumnData> cols(4);
  ColumnData& pkey = cols[0];
  ColumnData& skey = cols[1];
  ColumnData& qty = cols[2];
  ColumnData& cost = cols[3];
  pkey.type = DataType::kInt64;
  skey.type = DataType::kInt64;
  qty.type = DataType::kInt64;
  cost.type = DataType::kDouble;

  const int64_t supps = static_cast<int64_t>(counts.suppliers);
  for (uint64_t p = 1; p <= counts.parts; ++p) {
    const int64_t first = rng.Uniform(1, supps);
    // Second link: the next supplier cyclically — distinct whenever more
    // than one supplier exists.
    const int64_t second = first % supps + 1;
    for (const int64_t s : {first, second}) {
      pkey.i64.push_back(static_cast<int64_t>(p));
      skey.i64.push_back(s);
      qty.i64.push_back(rng.Uniform(1, 9999));
      cost.f64.push_back(
          std::round((1.0 + rng.NextDouble() * 999.0) * 100.0) / 100.0);
    }
  }
  return cols;
}

StatusOr<std::unique_ptr<storage::TableStorage>> LoadOrders(
    const TpchConfig& config, catalog::TableId id,
    storage::TableLayout layout, storage::StorageDevice* device) {
  auto table = std::make_unique<storage::TableStorage>(id, OrdersSchema(),
                                                       layout, device);
  ECODB_RETURN_IF_ERROR(table->Append(GenerateOrders(config)));
  return table;
}

StatusOr<std::unique_ptr<storage::TableStorage>> LoadLineitem(
    const TpchConfig& config, catalog::TableId id,
    storage::TableLayout layout, storage::StorageDevice* device) {
  auto table = std::make_unique<storage::TableStorage>(id, LineitemSchema(),
                                                       layout, device);
  ECODB_RETURN_IF_ERROR(table->Append(GenerateLineitem(config)));
  return table;
}

StatusOr<std::unique_ptr<storage::TableStorage>> LoadCustomer(
    const TpchConfig& config, catalog::TableId id,
    storage::TableLayout layout, storage::StorageDevice* device) {
  auto table = std::make_unique<storage::TableStorage>(id, CustomerSchema(),
                                                       layout, device);
  ECODB_RETURN_IF_ERROR(table->Append(GenerateCustomer(config)));
  return table;
}

StatusOr<std::unique_ptr<storage::TableStorage>> LoadPart(
    const TpchConfig& config, catalog::TableId id,
    storage::TableLayout layout, storage::StorageDevice* device) {
  auto table = std::make_unique<storage::TableStorage>(id, PartSchema(),
                                                       layout, device);
  ECODB_RETURN_IF_ERROR(table->Append(GeneratePart(config)));
  return table;
}

StatusOr<std::unique_ptr<storage::TableStorage>> LoadSupplier(
    const TpchConfig& config, catalog::TableId id,
    storage::TableLayout layout, storage::StorageDevice* device) {
  auto table = std::make_unique<storage::TableStorage>(id, SupplierSchema(),
                                                       layout, device);
  ECODB_RETURN_IF_ERROR(table->Append(GenerateSupplier(config)));
  return table;
}

StatusOr<std::unique_ptr<storage::TableStorage>> LoadPartsupp(
    const TpchConfig& config, catalog::TableId id,
    storage::TableLayout layout, storage::StorageDevice* device) {
  auto table = std::make_unique<storage::TableStorage>(id, PartsuppSchema(),
                                                       layout, device);
  ECODB_RETURN_IF_ERROR(table->Append(GeneratePartsupp(config)));
  return table;
}

StatusOr<TpchDatabase> LoadDatabase(const TpchConfig& config,
                                    storage::TableLayout layout,
                                    storage::StorageDevice* device,
                                    catalog::Catalog* catalog) {
  TpchDatabase db;
  auto load_one =
      [&](const char* name, catalog::Schema schema,
          StatusOr<std::unique_ptr<storage::TableStorage>> (*loader)(
              const TpchConfig&, catalog::TableId, storage::TableLayout,
              storage::StorageDevice*),
          TpchTable* out) -> Status {
    ECODB_ASSIGN_OR_RETURN(const catalog::TableId id,
                           catalog->CreateTable(name, std::move(schema)));
    ECODB_ASSIGN_OR_RETURN(out->storage, loader(config, id, layout, device));
    ECODB_ASSIGN_OR_RETURN(auto stats, out->storage->CachedStats());
    out->stats = *stats;
    return catalog->UpdateStats(id, out->stats);
  };
  // Dimensions first so fact-table FKs can resolve their parents.
  ECODB_RETURN_IF_ERROR(
      load_one("customer", CustomerSchema(), LoadCustomer, &db.customer));
  ECODB_RETURN_IF_ERROR(load_one("part", PartSchema(), LoadPart, &db.part));
  ECODB_RETURN_IF_ERROR(
      load_one("supplier", SupplierSchema(), LoadSupplier, &db.supplier));
  ECODB_RETURN_IF_ERROR(
      load_one("partsupp", PartsuppSchema(), LoadPartsupp, &db.partsupp));
  ECODB_RETURN_IF_ERROR(
      load_one("orders", OrdersSchema(), LoadOrders, &db.orders));
  ECODB_RETURN_IF_ERROR(
      load_one("lineitem", LineitemSchema(), LoadLineitem, &db.lineitem));

  auto fk = [&](const TpchTable& child, const char* column,
                const char* parent, const char* parent_column) {
    return catalog->AddForeignKey(
        child.storage->id(), {column, parent, parent_column});
  };
  ECODB_RETURN_IF_ERROR(fk(db.orders, "o_custkey", "customer", "c_custkey"));
  ECODB_RETURN_IF_ERROR(fk(db.lineitem, "l_orderkey", "orders", "o_orderkey"));
  ECODB_RETURN_IF_ERROR(fk(db.lineitem, "l_partkey", "part", "p_partkey"));
  ECODB_RETURN_IF_ERROR(fk(db.lineitem, "l_suppkey", "supplier", "s_suppkey"));
  ECODB_RETURN_IF_ERROR(fk(db.partsupp, "ps_partkey", "part", "p_partkey"));
  ECODB_RETURN_IF_ERROR(
      fk(db.partsupp, "ps_suppkey", "supplier", "s_suppkey"));
  return db;
}

}  // namespace ecodb::tpch
