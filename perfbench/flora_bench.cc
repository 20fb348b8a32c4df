// The repo benchmark: drives three workloads (browse, hotset, revise)
// through the public server::Client into a server::Server with its default
// options, over a synthetic flora with a second, overlapping revision
// classification. See README.md in this directory for the workloads, the
// metrics and what each per-layer metric is expected to move.
//
// Usage (normally through run.py, which builds this binary first):
//   flora_bench --workload browse|hotset|revise --seed N --seconds S
//               --trace 0|1 --work-dir DIR [--git-sha SHA]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// report with every end-to-end metric (untraced run) or every per-layer
// metric (traced run), the correctness counts, the workload-validity
// checks and the host fingerprint.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/database.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/server.h"
#include "spans.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "taxonomy/synthetic.h"
#include "taxonomy/taxonomy_db.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using prometheus::Database;
using prometheus::IndexManager;
using prometheus::kNullOid;
using prometheus::Oid;
using prometheus::Result;
using prometheus::Status;
using prometheus::Value;
using prometheus::pool::ResultSet;
using prometheus::server::Client;
using prometheus::server::Request;
using prometheus::server::Response;
using prometheus::server::ResponseCode;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Pct(const std::vector<double>& v, double p) {
  return prometheus::stats::Percentile(v, p);
}

double Median(std::vector<double> v) { return Pct(std::move(v), 50); }

// ------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string git_sha = "unavailable";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--work-dir") {
      a->work_dir = val;
    } else if (key == "--git-sha") {
      a->git_sha = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && !a->work_dir.empty() &&
         a->seconds > 0;
}

// ----------------------------------------------------------------- flora

// 4 families x 25 genera x 20 species = 2000 species, 8000 specimens. The
// browse working set at this size (about 20k distinct query texts) is well
// past the 512-entry plan cache, while three-range joins (left out) would
// already take seconds each.
constexpr prometheus::taxonomy::FloraConfig kFloraShape = {
    .families = 4,
    .genera_per_family = 25,
    .species_per_genus = 20,
    .specimens_per_species = 4};
constexpr int kRevisionGenera = 40;
constexpr int kCollectors = 20;  // GenerateFlora draws Collector0..19
constexpr int kRenamePool = 64;  // original species the writer renames

// What the workloads draw their keys from, copied out of the generated
// flora before it is handed to the store.
struct Catalog {
  std::vector<Oid> specimens;
  std::vector<std::string> field_numbers;  // parallel to `specimens`
  std::vector<std::string> collectors;     // parallel to `specimens`
  std::vector<std::string> taxon_names;    // distinct working names
  std::vector<std::string> genus_names;    // original + revision genera
  Oid revision = kNullOid;
  std::vector<Oid> revision_genera;
  // Every species of the revision, its genus (index into revision_genera)
  // and the `contains` link placing it there.
  std::vector<Oid> revision_species;
  std::vector<int> genus_of;
  std::vector<Oid> contains_link;
  // Original species whose working_name the revise writer rewrites, and
  // their names at generation.
  std::vector<Oid> rename_taxa;
  std::vector<std::string> rename_names;
  std::size_t objects = 0;
  std::size_t links = 0;
};

std::string StringAttr(const Database& db, Oid oid, const char* attr) {
  auto v = db.GetAttribute(oid, attr);
  return v.ok() && v.value().type() == prometheus::ValueType::kString
             ? v.value().AsString()
             : std::string();
}

Status FillCatalog(prometheus::taxonomy::TaxonomyDatabase& tdb,
                   const prometheus::taxonomy::Flora& flora, Oid revision,
                   std::uint64_t seed, Catalog* cat) {
  const Database& db = tdb.db();
  *cat = Catalog{};
  cat->specimens = flora.specimens;
  for (Oid s : flora.specimens) {
    cat->field_numbers.push_back(StringAttr(db, s, "field_number"));
    cat->collectors.push_back(StringAttr(db, s, "collector"));
  }
  std::vector<std::string> names;
  for (Oid t : flora.species_taxa) {
    names.push_back(StringAttr(db, t, "working_name"));
  }
  for (Oid t : flora.genus_taxa) {
    names.push_back(StringAttr(db, t, "working_name"));
    cat->genus_names.push_back(names.back());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  cat->taxon_names = names;

  cat->revision = revision;
  std::map<Oid, int> genus_index;
  for (Oid link : db.LinkExtent(prometheus::taxonomy::kContainsRel)) {
    const prometheus::Link* l = db.GetLink(link);
    if (l == nullptr || l->context != revision) continue;
    auto [it, fresh] =
        genus_index.emplace(l->source, static_cast<int>(genus_index.size()));
    if (fresh) cat->revision_genera.push_back(l->source);
    cat->revision_species.push_back(l->target);
    cat->genus_of.push_back(it->second);
    cat->contains_link.push_back(link);
  }
  for (Oid g : cat->revision_genera) {
    cat->genus_names.push_back(StringAttr(db, g, "working_name"));
  }
  if (cat->revision_genera.size() < 2 ||
      cat->revision_species.size() != flora.species_taxa.size()) {
    return Status::FailedPrecondition(
        "revision classification is not as generated");
  }
  std::mt19937_64 rng(seed ^ 0x5eed);
  std::vector<Oid> pool = flora.species_taxa;
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(kRenamePool);
  cat->rename_taxa = pool;
  for (Oid t : pool) {
    cat->rename_names.push_back(StringAttr(db, t, "working_name"));
  }
  cat->objects = db.object_count();
  cat->links = db.link_count();
  return Status::Ok();
}

// --------------------------------------------------------------- fixture

/// One served database: the flora in a DurableStore, the two indexes and a
/// default-configured server. Members are destroyed server first, store
/// last (the server and the indexes listen on the store's event bus).
struct Fixture {
  std::string dir;
  std::unique_ptr<prometheus::storage::DurableStore> store;
  std::unique_ptr<IndexManager> indexes;
  std::unique_ptr<prometheus::server::Server> server;

  Database& db() { return store->db(); }

  /// Stops the server and closes the store; the directory stays.
  void Close() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    indexes.reset();
    store.reset();
  }

  ~Fixture() {
    Close();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// The timed set-up: flora and revision generation, store open (seeded by
/// a snapshot of the generated flora), index build and server start.
Result<std::unique_ptr<Fixture>> BuildFixture(const std::string& dir,
                                              std::uint64_t seed,
                                              Catalog* cat) {
  namespace tx = prometheus::taxonomy;
  auto fx = std::make_unique<Fixture>();
  fx->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);

  std::stringstream image;
  {
    tx::TaxonomyDatabase tdb;
    tx::FloraConfig config = kFloraShape;
    config.seed = static_cast<unsigned>(seed);
    PROMETHEUS_ASSIGN_OR_RETURN(tx::Flora flora,
                                tx::GenerateFlora(&tdb, config));
    PROMETHEUS_ASSIGN_OR_RETURN(
        Oid revision, tx::GenerateRevision(&tdb, flora, kRevisionGenera,
                                           static_cast<unsigned>(seed) + 1));
    PROMETHEUS_RETURN_IF_ERROR(FillCatalog(tdb, flora, revision, seed, cat));
    PROMETHEUS_RETURN_IF_ERROR(
        prometheus::storage::SaveSnapshot(tdb.db(), image));
  }
  prometheus::storage::DurableStore::Options options;
  options.bootstrap = [&image](Database* db) {
    return prometheus::storage::LoadSnapshot(db, image);
  };
  PROMETHEUS_ASSIGN_OR_RETURN(
      fx->store, prometheus::storage::DurableStore::Open(dir, options));
  fx->indexes = std::make_unique<IndexManager>(&fx->db());
  PROMETHEUS_RETURN_IF_ERROR(fx->indexes->CreateIndex(
      prometheus::taxonomy::kTaxonClass, "working_name"));
  PROMETHEUS_RETURN_IF_ERROR(fx->indexes->CreateIndex(
      prometheus::taxonomy::kSpecimenClass, "field_number"));
  prometheus::server::Server::Options server_options;
  server_options.indexes = fx->indexes.get();
  server_options.store = fx->store.get();
  fx->server = std::make_unique<prometheus::server::Server>(&fx->db(),
                                                            server_options);
  return fx;
}

/// Rows in a canonical order, so two executions compare equal whatever
/// order their plans produced.
std::string Digest(const ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '\x1f';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) {
    out += r;
    out += '\x1e';
  }
  return out;
}

/// The single-threaded reference: a fresh engine with no cache, reading
/// one pinned snapshot of the quiescent database.
Result<std::string> ReferenceDigest(Database& db, IndexManager* indexes,
                                    const std::string& text) {
  prometheus::pool::QueryEngine engine(&db, indexes);
  prometheus::SnapshotHandle snap = db.AcquireSnapshot();
  PROMETHEUS_ASSIGN_OR_RETURN(ResultSet rs, engine.Execute(text, *snap));
  return Digest(rs);
}

// ------------------------------------------------------ query templates

std::string ProbeText(const std::string& field_number) {
  return "select s.collector, s.herbarium from Specimen s where "
         "s.field_number = '" + field_number + "'";
}
std::string OverlapText(const std::string& field_number) {
  return "select t.working_name, t.rank from Specimen s, "
         "traverse(s, 'circumscribes', 1, 1, 'in') t where "
         "s.field_number = '" + field_number + "'";
}
std::string JoinText(const std::string& name) {
  return "select t.rank, l.target.year from CircumscriptionTaxon t, "
         "ascribed_name l where t.working_name = '" + name +
         "' and l.source = t";
}
std::string LinkFilterText(const std::string& name) {
  return "select l.target.field_number from circumscribes l where "
         "l.source.working_name = '" + name + "'";
}
std::string ScanText(int collector, int year) {
  return "select s.field_number from Specimen s where s.collector = "
         "'Collector" + std::to_string(collector) +
         "' and s.collection_year = " + std::to_string(year);
}
std::string NameProbeText(const std::string& name) {
  return "select t.rank from CircumscriptionTaxon t where t.working_name = '" +
         name + "'";
}
std::string DescendantsText(const std::string& genus) {
  return "select count(traverse(g, 'contains', 1, 0, 'out')) from "
         "CircumscriptionTaxon g where g.working_name = '" + genus + "'";
}
// Every species placed under a revision genus, read in one snapshot: a
// torn move would show as one row too many or too few.
const char kConsistencyText[] =
    "select c from CircumscriptionTaxon g, children(g, 'contains') c "
    "where starts_with(g.working_name, 'Rev')";

// ------------------------------------------------------------ workloads

enum class Tmpl : std::uint8_t {
  kProbe, kOverlap, kJoin, kLinkFilter, kScan,  // browse (and hotset)
  kNameProbe, kDescendants, kConsistency,       // revise
  kWrite,
};
constexpr int kTemplates = 9;
constexpr const char* kTemplateNames[kTemplates] = {
    "probe", "overlap", "join", "link_filter", "scan",
    "name_probe", "descendants", "consistency", "write"};

struct Op {
  Tmpl tmpl = Tmpl::kProbe;
  std::string text;
  int item = -1;   // index into Catalog::specimens for specimen probes
  int rank = -1;   // hotset: the read's hot-set entry
  int owned = -1;  // hotset: index into the owned specimens (owner = /8)
  // Indexed equality key, for the traced index probe ("" = not indexed).
  const char* index_class = "";
  const char* index_attr = "";
  std::string key;
};

/// A read of browse template `t` (0..4) with keys drawn from `rng`.
Op BrowseOp(const Catalog& cat, int t, std::mt19937_64& rng) {
  Op op;
  const std::size_t spec = rng() % cat.specimens.size();
  const std::string& name = cat.taxon_names[rng() % cat.taxon_names.size()];
  switch (t) {
    case 0:
      op.tmpl = Tmpl::kProbe;
      op.text = ProbeText(cat.field_numbers[spec]);
      break;
    case 1:
      op.tmpl = Tmpl::kOverlap;
      op.text = OverlapText(cat.field_numbers[spec]);
      break;
    case 2:
      op.tmpl = Tmpl::kJoin;
      op.text = JoinText(name);
      op.index_class = prometheus::taxonomy::kTaxonClass;
      op.index_attr = "working_name";
      op.key = name;
      return op;
    case 3:
      op.tmpl = Tmpl::kLinkFilter;
      op.text = LinkFilterText(name);
      return op;
    default:
      op.tmpl = Tmpl::kScan;
      op.text = ScanText(static_cast<int>(rng() % kCollectors),
                         1900 + static_cast<int>(rng() % 100));
      return op;
  }
  op.item = static_cast<int>(spec);
  op.index_class = prometheus::taxonomy::kSpecimenClass;
  op.index_attr = "field_number";
  op.key = cat.field_numbers[spec];
  return op;
}

/// A uniform random sample of at most `cap` values (Vitter's algorithm R).
/// Its memory is claimed and touched up front, so what the benchmark keeps
/// does not grow with the program's throughput and show in peak_rss_mb.
class Reservoir {
 public:
  void Reset(std::size_t cap, std::uint64_t seed) {
    values_.assign(cap, 0.0);
    size_ = 0;
    seen_ = 0;
    rng_.seed(seed);
  }
  void Add(double v) {
    ++seen_;
    if (size_ < values_.size()) {
      values_[size_++] = v;
      return;
    }
    const std::uint64_t j = rng_() % seen_;
    if (j < values_.size()) values_[j] = v;
  }
  const double* begin() const { return values_.data(); }
  const double* end() const { return values_.data() + size_; }

 private:
  std::vector<double> values_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::mt19937_64 rng_;
};

/// Per-thread results of the measured rounds.
struct ThreadLog {
  Reservoir read_ms;
  Reservoir template_ms[kTemplates];  // read_ms split by template
  Reservoir write_ms;
  Reservoir lateness_ms;  // open-loop writer: issue - due
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;          // failed a correctness check
  std::uint64_t rejected = 0;
  std::vector<std::string> why;     // first few failure descriptions
  // Traced rounds only.
  SpanLog spans;
  Reservoir queue_us;
  Reservoir overhead_us;
  Reservoir hit_us;
  Reservoir write_execute_us;
  Reservoir guard_wait_us;
  Reservoir journal_append_us;
  Reservoir pin_us;
  Reservoir lookup_us;
  std::uint64_t traced_reads = 0;
  std::uint64_t traced_writes = 0;

  /// Sizes every sample; the traced ones stay empty in an untraced run.
  void Init(bool traced, std::uint64_t seed) {
    read_ms.Reset(1 << 16, seed);
    for (Reservoir& r : template_ms) r.Reset(1 << 13, ++seed);
    write_ms.Reset(1 << 14, ++seed);
    lateness_ms.Reset(1 << 14, ++seed);
    const std::size_t cap = traced ? 1 << 14 : 0;
    for (Reservoir* r : {&queue_us, &overhead_us, &hit_us, &write_execute_us,
                         &guard_wait_us, &journal_append_us, &pin_us,
                         &lookup_us}) {
      r->Reset(cap, ++seed);
    }
  }

  void Fail(bool wrong_answer, std::string what) {
    ++failed;
    if (wrong_answer) ++wrong;
    if (why.size() < 5) why.push_back(std::move(what));
  }
};

/// Records a traced write: its wait breakdown and its spans, the server's
/// reported waits as children of the client call.
void TraceWrite(ThreadLog& log, const Response& resp, Clock::time_point t0,
                Clock::time_point t1, std::uint64_t request) {
  const prometheus::server::WaitBreakdown& wt = resp.waits;
  ++log.traced_writes;
  log.write_execute_us.Add(wt.execute_micros);
  log.guard_wait_us.Add(wt.guard_wait_micros);
  log.journal_append_us.Add(wt.journal_append_micros);
  const int root =
      log.spans.Add("server.call", Nanos(t0), Nanos(t1), -1, request);
  log.spans.AddSequence(
      root, Nanos(t0), request,
      {{"server.queue", wt.queue_micros},
       {"core.guard_wait", wt.guard_wait_micros},
       {"core.write_execute", wt.execute_micros},
       {"storage.journal",
        wt.journal_append_micros + wt.journal_sync_micros}});
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  virtual int ops_per_client() const = 0;
  /// Reads expected answers off the fresh, quiescent database.
  virtual Status Prepare(Fixture&) { return Status::Ok(); }
  /// The client's fixed operation sequence for one round.
  virtual std::vector<Op> MakeOps(int client, std::mt19937_64& rng) = 0;
  /// Checks a successful read. Runs on the client's own thread.
  virtual bool CheckRead(int client, const Op& op, const ResultSet& rows,
                         std::string* why) = 0;
  /// A closed-loop write op (hotset) as a request, and its acknowledgement.
  virtual Request WriteRequest(int, const Op&) { return Request::Ping(); }
  virtual void OnWriteAck(int, const Op&) {}
  /// Whether each round starts from empty caches. A workload whose
  /// distinct texts keep growing must, or later rounds would hit what
  /// earlier ones cached and the run would speed up as it goes.
  virtual bool cold_rounds() const { return true; }
  /// The open-loop writer (revise): runs until `stop`, at a fixed rate.
  virtual bool has_writer() const { return false; }
  virtual void RunWriter(Client&, Clock::time_point,
                         const std::atomic<bool>&, bool, ThreadLog&) {}
  /// Post-run oracles; returns failed checks, adding descriptions to `why`.
  virtual std::uint64_t Finish(Fixture&, std::vector<std::string>*) {
    return 0;
  }
  /// Extra workload-specific report members (validity inputs).
  virtual void Report(std::map<std::string, double>*) const {}
};

// browse: four closed-loop readers, uniform draws over the whole flora.
// A sampled share of answers is kept and compared after the run against a
// single-threaded re-execution (no cache) on the quiescent database.
class Browse : public Workload {
 public:
  explicit Browse(const Catalog& cat) : cat_(cat), samples_(kClients) {}
  int clients() const override { return kClients; }
  int ops_per_client() const override { return 400; }

  std::vector<Op> MakeOps(int, std::mt19937_64& rng) override {
    std::vector<Op> ops;
    for (int i = 0; i < ops_per_client(); ++i) {
      ops.push_back(BrowseOp(cat_, static_cast<int>(rng() % 5), rng));
    }
    return ops;
  }

  bool CheckRead(int client, const Op& op, const ResultSet& rows,
                 std::string*) override {
    auto& mine = samples_[client];
    if (++seen_[client] % kSampleEvery == 0) {
      mine.emplace_back(op.text, Digest(rows));
    }
    return true;
  }

  std::uint64_t Finish(Fixture& fx, std::vector<std::string>* why) override {
    std::uint64_t bad = 0;
    std::map<std::string, std::string> reference;
    for (const auto& mine : samples_) {
      for (const auto& [text, digest] : mine) {
        auto it = reference.find(text);
        if (it == reference.end()) {
          auto ref = ReferenceDigest(fx.db(), fx.indexes.get(), text);
          std::string digest_or_error =
              ref.ok() ? ref.value() : "error: " + ref.status().ToString();
          it = reference.emplace(text, std::move(digest_or_error)).first;
        }
        ++checked_;
        if (it->second != digest) {
          ++bad;
          if (why->size() < 5) why->push_back("browse answer differs: " + text);
        }
      }
    }
    return bad;
  }

  void Report(std::map<std::string, double>* out) const override {
    (*out)["oracle_checked"] = static_cast<double>(checked_);
  }

 private:
  static constexpr int kClients = 4;
  static constexpr int kSampleEvery = 64;
  const Catalog& cat_;
  std::vector<std::vector<std::pair<std::string, std::string>>> samples_;
  std::uint64_t seen_[kClients] = {};
  std::uint64_t checked_ = 0;
};

// hotset: four closed-loop readers over a fixed 256-text hot set drawn
// with Zipf(1); each client also writes the herbarium of one of its own
// specimens every kWriteEvery-th op. Static texts are compared with their
// expected answers; a client's reads of its own specimens must show its
// last acknowledged write (a stale result-cache hit fails).
class Hotset : public Workload {
 public:
  Hotset(const Catalog& cat, std::uint64_t seed)
      : cat_(cat), seed_(seed), own_value_(kClients * kOwned, "E") {}
  int clients() const override { return kClients; }
  int ops_per_client() const override { return 3000; }

  Status Prepare(Fixture& fx) override {
    std::mt19937_64 rng(seed_ ^ 0x407);
    // Each client owns kOwned specimens; only it writes them.
    std::vector<std::size_t> order(cat_.specimens.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(own_value_.size());
    owned_items_ = order;
    std::vector<bool> owned(cat_.specimens.size(), false);
    for (std::size_t s : order) owned[s] = true;
    // Hot set: the owned specimens' probes at every 8th rank, the other
    // ranks cycling through the browse templates in a fixed order, so the
    // seed picks keys but not the cost profile by rank (never probing an
    // owned specimen).
    hot_.resize(kHotSet);
    std::size_t next_owned = 0;
    int filler = 0;
    std::set<std::string> used;
    for (int r = 0; r < kHotSet; ++r) {
      Op op;
      if (r % (kHotSet / (kClients * kOwned)) == 0) {
        const int item = static_cast<int>(owned_items_[next_owned]);
        op.owned = static_cast<int>(next_owned++);
        op.tmpl = Tmpl::kProbe;
        op.item = item;
        op.text = ProbeText(cat_.field_numbers[item]);
        op.index_class = prometheus::taxonomy::kSpecimenClass;
        op.index_attr = "field_number";
        op.key = cat_.field_numbers[item];
      } else {
        const int t = filler++ % 5;
        do {
          op = BrowseOp(cat_, t, rng);
        } while ((op.item >= 0 && owned[op.item]) || used.count(op.text));
      }
      used.insert(op.text);
      op.rank = r;
      hot_[r] = op;
    }
    for (Op& op : hot_) {
      PROMETHEUS_ASSIGN_OR_RETURN(
          std::string digest,
          ReferenceDigest(fx.db(), fx.indexes.get(), op.text));
      expected_.push_back(std::move(digest));
    }
    double total = 0;
    for (int r = 0; r < kHotSet; ++r) {
      total += 1.0 / (r + 1);
      zipf_cdf_.push_back(total);
    }
    // The hot set is resident before timing starts, as in steady state.
    Client client(fx.server.get());
    for (const Op& op : hot_) {
      Response resp = client.Call(Request::Query(op.text));
      if (!resp.ok()) return resp.status;
    }
    return Status::Ok();
  }

  bool cold_rounds() const override { return false; }

  std::vector<Op> MakeOps(int client, std::mt19937_64& rng) override {
    std::vector<Op> ops;
    std::uniform_real_distribution<double> u(0, zipf_cdf_.back());
    for (int i = 0; i < ops_per_client(); ++i) {
      if (i % kWriteEvery == kWriteEvery - 1) {
        Op w;
        w.tmpl = Tmpl::kWrite;
        w.owned = client * kOwned + static_cast<int>(rng() % kOwned);
        w.item = owned_items_[static_cast<std::size_t>(w.owned)];
        char value[48];
        std::snprintf(value, sizeof value, "H%d-%" PRIu64, client,
                      ++write_serial_[client]);
        w.key = value;
        ops.push_back(std::move(w));
        continue;
      }
      const auto r = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u(rng)) -
          zipf_cdf_.begin());
      ops.push_back(hot_[std::min<std::size_t>(r, kHotSet - 1)]);
    }
    return ops;
  }

  bool CheckRead(int client, const Op& op, const ResultSet& rows,
                 std::string* why) override {
    if (op.owned < 0) {
      if (Digest(rows) == expected_[op.rank]) return true;
      *why = "hotset answer differs: " + op.text;
      return false;
    }
    if (rows.rows.size() != 1 || rows.rows[0].size() != 2 ||
        rows.rows[0][1].type() != prometheus::ValueType::kString ||
        rows.rows[0][0] != Value::String(cat_.collectors[op.item])) {
      *why = "hotset probe malformed: " + op.text;
      return false;
    }
    const std::string& herbarium = rows.rows[0][1].AsString();
    const int owner = op.owned / kOwned;
    if (owner == client) {
      // Only this client writes the specimen, so its last acknowledged
      // value is the one a fresh read must show.
      const std::string& want = own_value_[static_cast<std::size_t>(op.owned)];
      if (herbarium == want) return true;
      *why = "stale read of own write: " + op.text + " saw " + herbarium +
             " want " + want;
      return false;
    }
    if (herbarium == "E" ||
        herbarium.rfind("H" + std::to_string(owner) + "-", 0) == 0) {
      return true;
    }
    *why = "foreign herbarium value " + herbarium + " in " + op.text;
    return false;
  }

  Request WriteRequest(int, const Op& op) override {
    return Request::SetAttribute(cat_.specimens[op.item], "herbarium",
                                 Value::String(op.key));
  }
  void OnWriteAck(int, const Op& op) override {
    own_value_[static_cast<std::size_t>(op.owned)] = op.key;
  }

 private:
  static constexpr int kClients = 4;
  static constexpr int kHotSet = 256;
  static constexpr int kOwned = 8;
  // One write per 1000 ops per client keeps most of the 256 hot texts
  // resident between the whole-cache invalidations a commit causes.
  static constexpr int kWriteEvery = 1000;

  const Catalog& cat_;
  const std::uint64_t seed_;
  // Client c owns owned specimens [c*kOwned, (c+1)*kOwned); each element
  // of own_value_ is only touched by its owner's thread.
  std::vector<std::size_t> owned_items_;
  std::vector<std::string> own_value_;  // last acknowledged herbarium
  std::vector<Op> hot_;
  std::vector<std::string> expected_;  // per rank
  std::vector<double> zipf_cdf_;
  std::uint64_t write_serial_[kClients] = {};
};

// revise: three closed-loop readers and one open-loop writer of revision
// transactions at a fixed rate. Each transaction moves one species between
// revision genera, renames one indexed working_name from a fixed pool and
// sets one specimen's herbarium. Readers check snapshot consistency; the
// run ends with a durability check (sync, close, reopen, compare).
class Revise : public Workload {
 public:
  Revise(const Catalog& cat, std::uint64_t seed)
      : cat_(cat),
        rng_(seed ^ 0x2e715e),
        genus_of_(cat.genus_of),
        link_of_(cat.contains_link),
        name_of_(cat.rename_names),
        herbarium_of_(cat.specimens.size(), "E") {
    for (const std::string& n : cat.rename_names) {
      for (int v = 0; v < kNameVariants; ++v) {
        probe_names_.push_back(Variant(n, v));
      }
    }
  }
  int clients() const override { return 3; }
  int ops_per_client() const override { return 3000; }

  std::vector<Op> MakeOps(int, std::mt19937_64& rng) override {
    std::vector<Op> ops;
    for (int i = 0; i < ops_per_client(); ++i) {
      Op op;
      // Per mille: the snapshot-consistency read scans every taxon, so it
      // is kept rare enough not to be the read tail itself.
      const int d = static_cast<int>(rng() % 1000);
      if (d < 350) {
        // Names the writer keeps rewriting are a third of the probes.
        const std::string& name =
            rng() % 3 == 0 ? probe_names_[rng() % probe_names_.size()]
                           : cat_.taxon_names[rng() % cat_.taxon_names.size()];
        op.tmpl = Tmpl::kNameProbe;
        op.text = NameProbeText(name);
        op.index_class = prometheus::taxonomy::kTaxonClass;
        op.index_attr = "working_name";
        op.key = name;
      } else if (d < 700) {
        const std::size_t s = rng() % cat_.specimens.size();
        op.tmpl = Tmpl::kProbe;
        op.item = static_cast<int>(s);
        op.text = ProbeText(cat_.field_numbers[s]);
        op.index_class = prometheus::taxonomy::kSpecimenClass;
        op.index_attr = "field_number";
        op.key = cat_.field_numbers[s];
      } else if (d < 995) {
        op.tmpl = Tmpl::kDescendants;
        op.text = DescendantsText(
            cat_.genus_names[rng() % cat_.genus_names.size()]);
      } else {
        op.tmpl = Tmpl::kConsistency;
        op.text = kConsistencyText;
      }
      ops.push_back(std::move(op));
    }
    return ops;
  }

  bool CheckRead(int, const Op& op, const ResultSet& rows,
                 std::string* why) override {
    if (op.tmpl == Tmpl::kConsistency) {
      if (rows.rows.size() == cat_.revision_species.size()) return true;
      *why = "torn revision: " + std::to_string(rows.rows.size()) +
             " species under revision genera, want " +
             std::to_string(cat_.revision_species.size());
      return false;
    }
    if (op.tmpl == Tmpl::kProbe) {
      if (rows.rows.size() == 1 && !rows.rows[0].empty() &&
          rows.rows[0][0] == Value::String(cat_.collectors[op.item])) {
        return true;
      }
      *why = "specimen probe wrong: " + op.text;
      return false;
    }
    return true;
  }

  bool has_writer() const override { return true; }

  void RunWriter(Client& client, Clock::time_point start,
                 const std::atomic<bool>& stop, bool traced,
                 ThreadLog& log) override {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kTxnPerSecond));
    for (std::uint64_t i = 0;; ++i) {
      const Clock::time_point due = start + period * static_cast<long>(i);
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_acquire)) return;
      const Clock::time_point issued = Clock::now();

      // The next transaction of the fixed, seeded sequence.
      const std::size_t sp = rng_() % cat_.revision_species.size();
      int to = static_cast<int>(rng_() % (cat_.revision_genera.size() - 1));
      if (to >= genus_of_[sp]) ++to;
      const std::size_t renamed = rng_() % name_of_.size();
      const std::string new_name =
          Variant(cat_.rename_names[renamed],
                  static_cast<int>(rng_() % kNameVariants));
      const std::size_t spec = rng_() % cat_.specimens.size();
      const std::string herbarium = "W" + std::to_string(++serial_);

      const Oid old_link = link_of_[sp];
      const Oid species = cat_.revision_species[sp];
      const Oid genus = cat_.revision_genera[static_cast<std::size_t>(to)];
      const Oid taxon = cat_.rename_taxa[renamed];
      const Oid specimen = cat_.specimens[spec];
      const Oid revision = cat_.revision;
      Oid new_link = kNullOid;
      Response resp = client.Call(Request::Custom([&](Database& db) -> Status {
        PROMETHEUS_RETURN_IF_ERROR(db.Begin());
        Status s = db.DeleteLink(old_link);
        if (s.ok()) {
          auto created = db.CreateLink(prometheus::taxonomy::kContainsRel,
                                       genus, species, revision);
          s = created.status();
          if (s.ok()) new_link = created.value();
        }
        if (s.ok()) {
          s = db.SetAttribute(taxon, "working_name", Value::String(new_name));
        }
        if (s.ok()) {
          s = db.SetAttribute(specimen, "herbarium", Value::String(herbarium));
        }
        if (!s.ok()) {
          db.Abort();
          return s;
        }
        return db.Commit();
      }));
      const Clock::time_point done = Clock::now();
      ++log.writes;
      log.lateness_ms.Add(MicrosBetween(due, issued) / 1000.0);
      if (!resp.ok()) {
        if (resp.code == ResponseCode::kRejected) ++log.rejected;
        log.Fail(false, "revision txn failed: " + resp.status.ToString());
        continue;
      }
      // Acknowledged: this is now the state a reopened store must show.
      genus_of_[sp] = to;
      link_of_[sp] = new_link;
      name_of_[renamed] = new_name;
      herbarium_of_[spec] = herbarium;
      log.write_ms.Add(MicrosBetween(due, done) / 1000.0);
      ++acked_;
      if (traced) {
        TraceWrite(log, resp, issued, done, (std::uint64_t{1} << 62) | i);
      }
    }
  }

  std::uint64_t Finish(Fixture& fx, std::vector<std::string>* why) override {
    std::uint64_t bad = 0;
    auto fail = [&](std::string what) {
      ++bad;
      if (why->size() < 5) why->push_back(std::move(what));
    };
    Status synced = fx.store->Sync();
    if (!synced.ok()) fail("sync failed: " + synced.ToString());
    std::stringstream before;
    Status saved = prometheus::storage::SaveSnapshot(fx.db(), before);
    fx.Close();
    auto reopened = prometheus::storage::DurableStore::Open(fx.dir);
    if (!saved.ok() || !reopened.ok()) {
      fail("reopen failed: " +
           (saved.ok() ? reopened.status() : saved).ToString());
      return bad;
    }
    fx.store = std::move(reopened).value();
    std::stringstream after;
    Status resaved = prometheus::storage::SaveSnapshot(fx.db(), after);
    if (!resaved.ok() || before.str() != after.str()) {
      fail("recovered state differs from the state at shutdown");
    }
    // Every acknowledged revision, as the writer recorded it.
    const Database& db = fx.db();
    for (std::size_t i = 0; i < cat_.revision_species.size(); ++i) {
      const prometheus::Link* l = db.GetLink(link_of_[i]);
      const Oid genus =
          cat_.revision_genera[static_cast<std::size_t>(genus_of_[i])];
      if (l == nullptr || l->target != cat_.revision_species[i] ||
          l->context != cat_.revision || l->source != genus) {
        fail("acknowledged move lost for species @" +
             std::to_string(cat_.revision_species[i]));
      }
    }
    for (std::size_t i = 0; i < cat_.rename_taxa.size(); ++i) {
      if (StringAttr(db, cat_.rename_taxa[i], "working_name") != name_of_[i]) {
        fail("acknowledged rename lost");
      }
    }
    for (std::size_t i = 0; i < cat_.specimens.size(); ++i) {
      if (StringAttr(db, cat_.specimens[i], "herbarium") != herbarium_of_[i]) {
        fail("acknowledged herbarium write lost");
      }
    }
    durability_checked_ = true;
    return bad;
  }

  void Report(std::map<std::string, double>* out) const override {
    (*out)["writer_rate_txn_per_s"] = kTxnPerSecond;
    (*out)["acked_txns"] = static_cast<double>(acked_);
    (*out)["durability_checked"] = durability_checked_ ? 1 : 0;
  }

 private:
  // Well below the writer's capacity (a transaction takes well under a
  // millisecond), so the schedule, not the server, sets the pace.
  static constexpr double kTxnPerSecond = 500;
  static constexpr int kNameVariants = 4;

  static std::string Variant(const std::string& name, int v) {
    return v == 0 ? name : name + "-r" + std::to_string(v);
  }

  const Catalog& cat_;
  std::mt19937_64 rng_;
  std::vector<int> genus_of_;
  std::vector<Oid> link_of_;
  std::vector<std::string> name_of_;
  std::vector<std::string> herbarium_of_;
  std::vector<std::string> probe_names_;
  std::uint64_t serial_ = 0;
  std::uint64_t acked_ = 0;
  bool durability_checked_ = false;
};

// ------------------------------------------------------------- the run

/// Counters read around traced rounds; per-layer ratios use their deltas.
struct Counters {
  prometheus::cache::QueryCacheStats cache;
  std::uint64_t rows_scanned = 0, rows_returned = 0, extent_scans = 0;
  std::uint64_t index_lookups = 0, index_fallbacks = 0, events = 0;
  std::uint64_t journal_bytes = 0, journal_syncs = 0;

  static Counters Read(Fixture& fx) {
    Counters c;
    c.cache = fx.server->query_cache().Stats();
    const prometheus::obs::MetricsSnapshot snap =
        prometheus::obs::Registry().Snapshot();
    c.rows_scanned = snap.CounterOr0("pool_rows_scanned_total");
    c.rows_returned = snap.CounterOr0("pool_rows_returned_total");
    c.extent_scans = snap.CounterOr0("pool_extent_scans_total");
    c.index_lookups = snap.CounterOr0("pool_index_lookups_total");
    c.index_fallbacks = snap.CounterOr0("pool_index_fallbacks_total");
    for (const auto& cv : snap.counters) {
      if (cv.name.rfind("events_published_total", 0) == 0) c.events += cv.value;
    }
    const auto st = fx.store->stats();
    c.journal_bytes = st.journal_bytes;
    c.journal_syncs = st.journal_syncs;
    return c;
  }
};

struct CounterDelta {
  double result_hits = 0, result_misses = 0, invalidations = 0;
  double plan_hits = 0, plan_misses = 0, evictions = 0;
  double rows_scanned = 0, rows_returned = 0, extent_scans = 0;
  double index_lookups = 0, index_fallbacks = 0, events = 0;
  double journal_bytes = 0, journal_syncs = 0;

  void Add(const Counters& a, const Counters& b) {
    auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    result_hits += d(a.cache.result.hits, b.cache.result.hits);
    result_misses += d(a.cache.result.misses, b.cache.result.misses);
    invalidations +=
        d(a.cache.result.invalidations, b.cache.result.invalidations);
    plan_hits += d(a.cache.plan.hits, b.cache.plan.hits);
    plan_misses += d(a.cache.plan.misses, b.cache.plan.misses);
    evictions += d(a.cache.result.evictions, b.cache.result.evictions) +
                 d(a.cache.plan.evictions, b.cache.plan.evictions);
    rows_scanned += d(a.rows_scanned, b.rows_scanned);
    rows_returned += d(a.rows_returned, b.rows_returned);
    extent_scans += d(a.extent_scans, b.extent_scans);
    index_lookups += d(a.index_lookups, b.index_lookups);
    index_fallbacks += d(a.index_fallbacks, b.index_fallbacks);
    events += d(a.events, b.events);
    journal_bytes += d(a.journal_bytes, b.journal_bytes);
    journal_syncs += d(a.journal_syncs, b.journal_syncs);
  }
};

double ResidentMiB() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(resident) * page / (1024.0 * 1024.0);
}

/// One closed-loop reader/writer client running its op list.
void RunClient(Fixture& fx, Workload& w, int id, const std::vector<Op>& ops,
               bool traced, std::uint64_t round, ThreadLog& log,
               Clock::time_point* end) {
  Client client(fx.server.get());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::uint64_t request =
        (round << 40) | (static_cast<std::uint64_t>(id) << 32) | i;
    if (op.tmpl == Tmpl::kWrite) {
      const Clock::time_point t0 = Clock::now();
      Response resp = client.Call(w.WriteRequest(id, op));
      const Clock::time_point t1 = Clock::now();
      ++log.writes;
      if (!resp.ok()) {
        if (resp.code == ResponseCode::kRejected) ++log.rejected;
        log.Fail(false, "write failed: " + resp.status.ToString());
        continue;
      }
      w.OnWriteAck(id, op);
      log.write_ms.Add(MicrosBetween(t0, t1) / 1000.0);
      if (traced) TraceWrite(log, resp, t0, t1, request);
      continue;
    }

    const Clock::time_point t0 = Clock::now();
    Response resp = client.Call(Request::Query(op.text));
    const Clock::time_point t1 = Clock::now();
    ++log.reads;
    if (!resp.ok()) {
      if (resp.code == ResponseCode::kRejected) ++log.rejected;
      log.Fail(false,
               "read failed: " + resp.status.ToString() + " in " + op.text);
      continue;
    }
    std::string why;
    if (!w.CheckRead(id, op, resp.result, &why)) {
      log.Fail(true, why);
      continue;
    }
    const double call_us = MicrosBetween(t0, t1);
    log.read_ms.Add(call_us / 1000.0);
    log.template_ms[static_cast<int>(op.tmpl)].Add(call_us / 1000.0);
    if (!traced) continue;

    ++log.traced_reads;
    const int root =
        log.spans.Add("server.call", Nanos(t0), Nanos(t1), -1, request);
    if (resp.cache_hit) {
      log.hit_us.Add(call_us);
      log.spans.Add("cache.hit", Nanos(t0), Nanos(t1), root, request);
    } else {
      const auto& wt = resp.waits;
      log.queue_us.Add(wt.queue_micros);
      log.overhead_us.Add(
          std::max(0.0, call_us - wt.queue_micros - wt.guard_wait_micros -
                            wt.execute_micros - wt.journal_append_micros -
                            wt.journal_sync_micros));
      log.spans.AddSequence(root, Nanos(t0), request,
                            {{"server.queue", wt.queue_micros},
                             {"core.guard_wait", wt.guard_wait_micros},
                             {"query.execute", wt.execute_micros}});
    }
    // Layer probes on a share of the reads: a snapshot pin and release,
    // and the same indexed key looked up at that pinned epoch.
    if (i % 4 == 0) {
      const Clock::time_point p0 = Clock::now();
      { prometheus::SnapshotHandle h = fx.db().AcquireSnapshot(); }
      const Clock::time_point p1 = Clock::now();
      log.pin_us.Add(MicrosBetween(p0, p1));
      log.spans.Add("core.pin", Nanos(p0), Nanos(p1), -1, request);
      if (*op.index_class != '\0') {
        prometheus::SnapshotHandle h = fx.db().AcquireSnapshot();
        const Clock::time_point l0 = Clock::now();
        auto found = fx.indexes->Lookup(op.index_class, op.index_attr,
                                        Value::String(op.key), h->epoch());
        const Clock::time_point l1 = Clock::now();
        (void)found;
        log.lookup_us.Add(MicrosBetween(l0, l1));
        log.spans.Add("index.lookup", Nanos(l0), Nanos(l1), -1, request);
      }
    }
  }
  *end = Clock::now();
}

/// Reads and wall time summed over rounds of one kind.
struct Throughput {
  double reads = 0;
  double seconds = 0;
  double per_second() const { return seconds > 0 ? reads / seconds : 0; }
};

struct RunResult {
  Throughput untraced;
  Throughput traced;
  std::vector<ThreadLog> logs;        // per thread, over all rounds
  CounterDelta traced_counters;
  double peak_rss_mib = 0;
  double retained_versions_max = 0;
  std::vector<std::string> issued;    // distinct read texts, issue order
  int rounds = 0;
};

void RunRounds(Fixture& fx, Workload& w, const Args& args, RunResult* out) {
  Client admin(fx.server.get());
  prometheus::obs::Gauge* retained =
      prometheus::obs::Registry().GetGauge("mvcc_retained_versions");
  std::set<std::string> issued_seen;
  const int n = w.clients();
  // One log per thread for the whole run (clients, then the writer).
  std::vector<ThreadLog>& logs = out->logs;
  logs.resize(static_cast<std::size_t>(n) + (w.has_writer() ? 1 : 0));
  for (std::size_t i = 0; i < logs.size(); ++i) {
    logs[i].Init(args.trace, (args.seed << 8) + i * 64);
  }
  const Clock::time_point run_start = Clock::now();
  const double budget_s = args.seconds;
  for (std::uint64_t round = 0;; ++round) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - run_start).count();
    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead is measured under the same conditions; it stops after a
    // whole pair.
    const bool need_more =
        args.trace ? (round < 2 || round % 2 == 1) : round < 1;
    if (!need_more && elapsed >= budget_s) break;
    const bool traced = args.trace && round % 2 == 1;

    // Every round runs fixed, seeded op lists.
    if (w.cold_rounds()) {
      admin.Call(Request::CacheControl(prometheus::server::CacheOp::kClear));
    }
    std::vector<std::vector<Op>> ops(n);
    for (int c = 0; c < n; ++c) {
      std::seed_seq seq{static_cast<std::uint32_t>(args.seed),
                        static_cast<std::uint32_t>(args.seed >> 32),
                        static_cast<std::uint32_t>(round),
                        static_cast<std::uint32_t>(c)};
      std::mt19937_64 rng(seq);
      ops[c] = w.MakeOps(c, rng);
      if (issued_seen.size() < 4096) {
        for (const Op& op : ops[c]) {
          if (op.tmpl != Tmpl::kWrite && issued_seen.insert(op.text).second) {
            out->issued.push_back(op.text);
          }
        }
      }
    }

    const Counters before = traced ? Counters::Read(fx) : Counters{};
    std::uint64_t reads = 0;
    for (int c = 0; c < n; ++c) reads -= logs[c].reads;
    std::vector<Clock::time_point> ends(static_cast<std::size_t>(n));
    std::atomic<int> done{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop_writer{false};
    Clock::time_point start;
    std::vector<std::thread> threads;
    for (int c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        RunClient(fx, w, c, ops[c], traced, round, logs[c], &ends[c]);
        done.fetch_add(1, std::memory_order_acq_rel);
      });
    }
    start = Clock::now();
    std::thread writer;
    if (w.has_writer()) {
      writer = std::thread([&] {
        Client client(fx.server.get());
        w.RunWriter(client, start, stop_writer, traced, logs[n]);
      });
    }
    go.store(true, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < n) {
      out->peak_rss_mib = std::max(out->peak_rss_mib, ResidentMiB());
      out->retained_versions_max = std::max(
          out->retained_versions_max, static_cast<double>(retained->value()));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop_writer.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    if (writer.joinable()) writer.join();
    out->peak_rss_mib = std::max(out->peak_rss_mib, ResidentMiB());

    const Clock::time_point end = *std::max_element(ends.begin(), ends.end());
    for (int c = 0; c < n; ++c) reads += logs[c].reads;
    Throughput& tput = traced ? out->traced : out->untraced;
    tput.reads += static_cast<double>(reads);
    tput.seconds += std::chrono::duration<double>(end - start).count();
    if (traced) out->traced_counters.Add(before, Counters::Read(fx));
    ++out->rounds;
  }
}

// ------------------------------------------------------------ reporting

/// A flat JSON object builder that keeps every digit of a double.
class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return Raw(k, buf);
  }
  Json& Str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      q += c;
    }
    return Raw(k, q + "\"");
  }
  Json& Raw(const std::string& k, const std::string& v) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + k + "\":" + v;
    return *this;
  }
  std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

/// Metrics as {"name": {"value": v, "unit": u}}; a metric that does not
/// apply to the workload is never added (absent, not zero).
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    Json m;
    m.Num("value", value).Str("unit", unit);
    json_.Raw(name, m.str());
  }
  std::string str() const { return json_.str(); }

 private:
  Json json_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<double> Concat(const std::vector<ThreadLog>& logs,
                           Reservoir ThreadLog::*field) {
  std::vector<double> all;
  for (const ThreadLog& l : logs) {
    all.insert(all.end(), (l.*field).begin(), (l.*field).end());
  }
  return all;
}

/// The query layer's stage times from PROFILE, on a sample of the texts
/// the run issued, each planned from scratch (caches cleared first).
struct StageTimes {
  std::vector<double> parse, plan, execute;
};

StageTimes ProfileSample(Fixture& fx, const std::vector<std::string>& texts,
                         ThreadLog& log) {
  StageTimes st;
  Client client(fx.server.get());
  client.Call(Request::CacheControl(prometheus::server::CacheOp::kClear));
  const std::size_t n = std::min<std::size_t>(texts.size(), 300);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pick = i * texts.size() / n;
    const Clock::time_point t0 = Clock::now();
    auto prof = client.Profile(texts[pick]);
    const Clock::time_point t1 = Clock::now();
    if (!prof.ok()) {
      log.Fail(false, "profile failed: " + prof.status().ToString());
      continue;
    }
    const std::uint64_t request = (std::uint64_t{3} << 62) | i;
    const int root =
        log.spans.Add("query.profile", Nanos(t0), Nanos(t1), -1, request);
    std::vector<std::pair<const char*, double>> parts;
    for (const auto& row : prof.value().stages.rows) {
      if (row.size() < 2 ||
          row[0].type() != prometheus::ValueType::kString) {
        continue;
      }
      std::string stage = row[0].AsString();
      stage.erase(0, stage.find_first_not_of(' '));
      const double us = row[1].type() == prometheus::ValueType::kDouble
                            ? row[1].AsDouble()
                            : 0.0;
      if (stage == "parse") {
        st.parse.push_back(us);
        parts.emplace_back("query.parse", us);
      } else if (stage == "plan") {
        st.plan.push_back(us);
        parts.emplace_back("query.plan", us);
      } else if (stage == "execute") {
        st.execute.push_back(us);
        parts.emplace_back("query.execute", us);
      }
    }
    log.spans.AddSequence(root, Nanos(t0), request, parts);
  }
  return st;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flora_bench --workload browse|hotset|revise --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--git-sha SHA]\n");
    return 2;
  }
  if (args.workload != "browse" && args.workload != "hotset" &&
      args.workload != "revise") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  const std::string store_dir = args.work_dir + "/store-" + args.workload +
                                "-" + std::to_string(getpid());

  // Set-up, several times: the first ones are timed and discarded, the
  // last one serves the workload.
  const int setups = args.trace ? 1 : 9;
  std::vector<double> setup_s;
  Catalog cat;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < setups; ++i) {
    fx.reset();
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    auto built = BuildFixture(store_dir, args.seed, &cat);
    const Clock::time_point t1 = Clock::now();
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    fx = std::move(built).value();
    setup_s.push_back(MicrosBetween(t0, t1) / 1e6);
  }
  std::fprintf(stderr, "set-up %.3f s (median of %d); %zu objects, %zu links\n",
               Median(setup_s), setups, cat.objects, cat.links);

  std::unique_ptr<Workload> w;
  if (args.workload == "browse") {
    w = std::make_unique<Browse>(cat);
  } else if (args.workload == "hotset") {
    w = std::make_unique<Hotset>(cat, args.seed);
  } else {
    w = std::make_unique<Revise>(cat, args.seed);
  }
  Status prepared = w->Prepare(*fx);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.ToString().c_str());
    return 1;
  }
  malloc_trim(0);

  RunResult run;
  RunRounds(*fx, *w, args, &run);

  StageTimes stages;
  if (args.trace) {
    ThreadLog profile;
    stages = ProfileSample(*fx, run.issued, profile);
    run.logs.push_back(std::move(profile));
  }
  std::vector<std::string> finish_why;
  const std::uint64_t finish_bad = w->Finish(*fx, &finish_why);

  // ------------------------------------------------------------ totals
  std::uint64_t reads = 0, writes = 0, failed = finish_bad, wrong = finish_bad,
                rejected = 0;
  std::vector<std::string> why = finish_why;
  for (const ThreadLog& l : run.logs) {
    reads += l.reads;
    writes += l.writes;
    failed += l.failed;
    wrong += l.wrong;
    rejected += l.rejected;
    for (const auto& s : l.why) {
      if (why.size() < 8) why.push_back(s);
    }
  }
  const std::uint64_t attempted = reads + writes;
  for (const auto& s : why) std::fprintf(stderr, "FAILED: %s\n", s.c_str());

  std::vector<double> read_ms = Concat(run.logs, &ThreadLog::read_ms);
  std::vector<double> write_ms = Concat(run.logs, &ThreadLog::write_ms);
  std::vector<double> lateness = Concat(run.logs, &ThreadLog::lateness_ms);

  MetricSet e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  if (run.untraced.seconds > 0) {
    e2e.Add("read_ops_per_s", run.untraced.per_second(), "1/s");
  }
  if (!read_ms.empty()) {
    e2e.Add("read_p50_ms", Pct(read_ms, 50), "ms");
    e2e.Add("read_p99_ms", Pct(read_ms, 99), "ms");
  }
  if (!write_ms.empty()) {
    e2e.Add("write_p50_ms", Pct(write_ms, 50), "ms");
    e2e.Add("write_p99_ms", Pct(write_ms, 99), "ms");
  }
  e2e.Add("fail_ratio",
          static_cast<double>(failed) / static_cast<double>(attempted),
          "ratio");
  e2e.Add("peak_rss_mb", run.peak_rss_mib, "MB");

  std::map<std::string, double> extra;
  w->Report(&extra);
  for (int t = 0; t < kTemplates; ++t) {
    std::vector<double> v;
    for (const ThreadLog& l : run.logs) {
      v.insert(v.end(), l.template_ms[t].begin(), l.template_ms[t].end());
    }
    if (!v.empty()) {
      extra[std::string("read_p50_ms.") + kTemplateNames[t]] = Pct(v, 50);
    }
  }
  Json validity;
  MetricSet layer;
  Json spans_json;
  std::string spans_file;
  if (args.trace) {
    const CounterDelta& d = run.traced_counters;
    std::uint64_t traced_reads = 0, traced_writes = 0;
    for (const ThreadLog& l : run.logs) {
      traced_reads += l.traced_reads;
      traced_writes += l.traced_writes;
    }
    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    auto add_pct = [&](const char* name, const std::vector<double>& v, double p,
                       const char* unit) {
      if (!v.empty()) layer.Add(name, Pct(v, p), unit);
    };
    const auto queue = Concat(run.logs, &ThreadLog::queue_us);
    add_pct("server.queue_wait_us_p50", queue, 50, "us");
    add_pct("server.queue_wait_us_p99", queue, 99, "us");
    layer.Add("server.rejected", static_cast<double>(rejected), "count");
    add_pct("server.client_overhead_us_p50",
            Concat(run.logs, &ThreadLog::overhead_us), 50, "us");
    const double result_hit_ratio =
        ratio(d.result_hits, d.result_hits + d.result_misses);
    layer.Add("cache.result_hit_ratio", result_hit_ratio, "ratio");
    if (traced_writes > 0) {
      layer.Add("cache.invalidations_per_write",
                d.invalidations / static_cast<double>(traced_writes), "ratio");
    }
    add_pct("cache.hit_us_p50", Concat(run.logs, &ThreadLog::hit_us), 50, "us");
    layer.Add("cache.plan_hit_ratio",
              ratio(d.plan_hits, d.plan_hits + d.plan_misses), "ratio");
    layer.Add("cache.evictions", d.evictions, "count");
    add_pct("query.parse_us_p50", stages.parse, 50, "us");
    add_pct("query.plan_us_p50", stages.plan, 50, "us");
    add_pct("query.execute_us_p50", stages.execute, 50, "us");
    add_pct("query.execute_us_p99", stages.execute, 99, "us");
    layer.Add("query.rows_examined_per_row",
              ratio(d.rows_scanned, d.rows_returned), "ratio");
    layer.Add("query.extent_scans_per_read",
              ratio(d.extent_scans, static_cast<double>(traced_reads)),
              "ratio");
    add_pct("index.lookup_us_p50", Concat(run.logs, &ThreadLog::lookup_us), 50,
            "us");
    // pool_index_lookups_total counts successful lookups only, so the
    // attempts are lookups plus fallbacks.
    const double fallback_ratio =
        ratio(d.index_fallbacks, d.index_lookups + d.index_fallbacks);
    layer.Add("index.fallback_ratio", fallback_ratio, "ratio");
    const auto pin = Concat(run.logs, &ThreadLog::pin_us);
    add_pct("core.pin_us_p50", pin, 50, "us");
    add_pct("core.pin_us_p99", pin, 99, "us");
    layer.Add("core.retained_versions_max", run.retained_versions_max, "count");
    if (traced_writes > 0) {
      const double txns = static_cast<double>(traced_writes);
      add_pct("core.write_execute_us_p50",
              Concat(run.logs, &ThreadLog::write_execute_us), 50, "us");
      add_pct("core.guard_wait_us_p99",
              Concat(run.logs, &ThreadLog::guard_wait_us), 99, "us");
      layer.Add("event.dispatches_per_txn", d.events / txns, "ratio");
      layer.Add("storage.journal_bytes_per_txn", d.journal_bytes / txns, "B");
      layer.Add("storage.journal_syncs", d.journal_syncs, "count");
      add_pct("storage.journal_append_us_p50",
              Concat(run.logs, &ThreadLog::journal_append_us), 50, "us");
    }
    const double untraced = run.untraced.per_second();
    layer.Add("trace.overhead_pct",
              100.0 * (untraced - run.traced.per_second()) / untraced, "%");

    // Workload-validity self-checks: does the workload stress what it
    // claims to? They inform; they do not make a run incorrect.
    auto verdict = [](bool ok) { return ok ? "pass" : "FLAG"; };
    if (args.workload == "browse") {
      validity.Str("result_hit_ratio_low", verdict(result_hit_ratio < 0.25));
    } else if (args.workload == "hotset") {
      validity.Str("result_hit_ratio_high", verdict(result_hit_ratio > 0.6));
    } else {
      validity.Str("index_fallback_ratio_above_0",
                   verdict(fallback_ratio > 0));
    }

    std::map<std::string, SpanTotals> totals;
    for (const ThreadLog& l : run.logs) AccumulateSelfTime(l.spans, &totals);
    for (const auto& [name, t] : totals) {
      Json s;
      s.Num("count", static_cast<double>(t.count))
          .Num("total_us", t.total_us)
          .Num("self_us", t.self_us);
      spans_json.Raw(name, s.str());
    }
    // Spans stay in memory during the run and are written out here.
    spans_file = args.work_dir + "/spans-" + args.workload + ".jsonl";
    std::ofstream sf(spans_file, std::ios::trunc);
    std::size_t thread = 0;
    auto dump = [&](const ThreadLog& l) {
      for (const Span& s : l.spans.spans()) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"thread\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                      ",\"end_ns\":%" PRId64
                      ",\"parent\":%d,\"request\":%" PRIu64 "}\n",
                      thread, s.name, s.start_ns, s.end_ns, s.parent,
                      s.request);
        sf << buf;
      }
      ++thread;
    };
    for (const ThreadLog& l : run.logs) dump(l);
  }
  if (w->has_writer()) {
    const double late_p99 = lateness.empty() ? 0 : Pct(lateness, 99);
    const double rate = static_cast<double>(writes) /
                        (run.untraced.seconds + run.traced.seconds);
    extra["writer_lateness_p50_ms"] = lateness.empty() ? 0 : Pct(lateness, 50);
    extra["writer_lateness_p99_ms"] = late_p99;
    extra["writer_achieved_txn_per_s"] = rate;
    // The open-loop generator never skips a transaction, so falling behind
    // shows as a lower achieved rate and a growing lateness tail.
    const bool kept = rate >= 0.95 * extra["writer_rate_txn_per_s"] &&
                      late_p99 <= 10.0;
    validity.Str("writer_kept_rate", kept ? "pass" : "FLAG");
  }

  Json host;
  host.Num("cores", std::thread::hardware_concurrency())
      .Str("cpu", CpuModel())
      .Str("compiler", std::string("gcc ") + __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("git_sha", args.git_sha);
  Json flora;
  flora.Num("species", static_cast<double>(cat.revision_species.size()))
      .Num("specimens", static_cast<double>(cat.specimens.size()))
      .Num("revision_genera", static_cast<double>(cat.revision_genera.size()))
      .Num("objects", static_cast<double>(cat.objects))
      .Num("links", static_cast<double>(cat.links))
      .Num("seed", static_cast<double>(args.seed));
  Json ex;
  for (const auto& [k, v] : extra) ex.Num(k, v);
  std::string why_json = "[";
  for (std::size_t i = 0; i < why.size(); ++i) {
    Json one;
    one.Str("why", why[i]);
    why_json += (i ? "," : "") + one.str();
  }
  why_json += "]";

  Json report;
  report.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Raw("trace", args.trace ? "true" : "false")
      .Raw("correct", wrong == 0 ? "true" : "false")
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Num("rounds", run.rounds)
      .Num("reads", static_cast<double>(reads))
      .Num("writes", static_cast<double>(writes))
      .Raw("end_to_end", e2e.str())
      .Raw("per_layer", layer.str())
      .Raw("validity", validity.str())
      .Raw("workload_facts", ex.str())
      .Str("flush_policy", "journal append per mutation, no fsync per commit")
      .Raw("host", host.str())
      .Raw("flora", flora.str())
      .Raw("spans", spans_json.str())
      .Str("spans_file", spans_file)
      .Raw("failures", why_json);
  std::printf("%s\n", report.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
