#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <utility>

#include "core/gibbs_sampler.h"
#include "core/parallel_sampler.h"
#include "util/fileio.h"
#include "util/logging.h"

namespace cold::core {
namespace {

constexpr char kMagic[8] = {'C', 'O', 'L', 'D', 'C', 'K', 'P', '1'};
// magic + version + flavor + sweep + pad + fingerprint + payload size +
// payload CRC + header CRC.
constexpr size_t kHeaderSize = 8 + 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4;
constexpr size_t kHeaderCrcOffset = kHeaderSize - 4;

// --- payload byte IO ------------------------------------------------------
//
// Fixed-width fields appended/consumed in declaration order, host-endian
// (checkpoints are machine-local scratch, not an interchange format). Every
// reader call is bounds-checked so a truncated or bit-flipped payload that
// slips past the CRC still fails with a clear Status instead of reading
// out of bounds.

class PayloadWriter {
 public:
  explicit PayloadWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void VecI32(const std::vector<int32_t>& v) {
    U64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(int32_t));
  }
  void VecF64(const std::vector<double>& v) {
    U64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(double));
  }

 private:
  void Raw(const void* p, size_t n) {
    out_->append(reinterpret_cast<const char*>(p), n);
  }
  std::string* out_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  cold::Status U8(uint8_t* v) { return Raw(v, sizeof *v); }
  cold::Status U32(uint32_t* v) { return Raw(v, sizeof *v); }
  cold::Status I32(int32_t* v) { return Raw(v, sizeof *v); }
  cold::Status U64(uint64_t* v) { return Raw(v, sizeof *v); }
  cold::Status F64(double* v) { return Raw(v, sizeof *v); }

  /// Reads a vector whose length must equal `expected` (known from the
  /// live sampler's dimensions).
  cold::Status VecI32(std::vector<int32_t>* v, size_t expected) {
    COLD_RETURN_NOT_OK(CheckLength(expected));
    v->resize(expected);
    return Raw(v->data(), expected * sizeof(int32_t));
  }
  cold::Status VecF64(std::vector<double>* v, size_t expected) {
    COLD_RETURN_NOT_OK(CheckLength(expected));
    v->resize(expected);
    return Raw(v->data(), expected * sizeof(double));
  }

  cold::Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return cold::Status::IOError(
          "checkpoint payload corrupt: trailing bytes after state");
    }
    return cold::Status::OK();
  }

 private:
  cold::Status CheckLength(size_t expected) {
    uint64_t n = 0;
    COLD_RETURN_NOT_OK(U64(&n));
    if (n != expected) {
      return cold::Status::IOError(
          "checkpoint payload corrupt: vector length mismatch");
    }
    return cold::Status::OK();
  }
  cold::Status Raw(void* p, size_t n) {
    if (data_.size() - pos_ < n) {
      return cold::Status::IOError("checkpoint payload truncated");
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return cold::Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// --- shared payload sections ----------------------------------------------

/// Dimensions + schedule echo. Restore refuses any mismatch: resuming under
/// a different seed or sweep schedule would silently break the
/// bit-identical-resume guarantee, so it must be an error, not a warning.
void WriteRunHeader(PayloadWriter& w, const ColdConfig& config,
                    const ColdState& s, bool use_network, double lambda0) {
  w.U32(static_cast<uint32_t>(s.U()));
  w.U32(static_cast<uint32_t>(s.C()));
  w.U32(static_cast<uint32_t>(s.K()));
  w.U32(static_cast<uint32_t>(s.T()));
  w.U32(static_cast<uint32_t>(s.V()));
  w.U64(s.post_community.size());
  w.U64(s.link_src_community.size());
  w.U64(config.seed);
  w.I32(config.iterations);
  w.I32(config.burn_in);
  w.I32(config.sample_lag);
  w.U8(use_network ? 1 : 0);
  w.F64(lambda0);
}

cold::Status CheckRunHeader(PayloadReader& r, const ColdConfig& config,
                            const ColdState& s, bool use_network,
                            double* lambda0_out) {
  uint32_t u, c, k, t, v;
  uint64_t posts, links, seed;
  int32_t iterations, burn_in, sample_lag;
  uint8_t net;
  COLD_RETURN_NOT_OK(r.U32(&u));
  COLD_RETURN_NOT_OK(r.U32(&c));
  COLD_RETURN_NOT_OK(r.U32(&k));
  COLD_RETURN_NOT_OK(r.U32(&t));
  COLD_RETURN_NOT_OK(r.U32(&v));
  COLD_RETURN_NOT_OK(r.U64(&posts));
  COLD_RETURN_NOT_OK(r.U64(&links));
  COLD_RETURN_NOT_OK(r.U64(&seed));
  COLD_RETURN_NOT_OK(r.I32(&iterations));
  COLD_RETURN_NOT_OK(r.I32(&burn_in));
  COLD_RETURN_NOT_OK(r.I32(&sample_lag));
  COLD_RETURN_NOT_OK(r.U8(&net));
  COLD_RETURN_NOT_OK(r.F64(lambda0_out));
  if (u != static_cast<uint32_t>(s.U()) || c != static_cast<uint32_t>(s.C()) ||
      k != static_cast<uint32_t>(s.K()) || t != static_cast<uint32_t>(s.T()) ||
      v != static_cast<uint32_t>(s.V()) || posts != s.post_community.size() ||
      links != s.link_src_community.size() ||
      (net != 0) != use_network) {
    return cold::Status::InvalidArgument(
        "checkpoint was written for a different dataset or model shape");
  }
  if (seed != config.seed || iterations != config.iterations ||
      burn_in != config.burn_in || sample_lag != config.sample_lag) {
    return cold::Status::InvalidArgument(
        "checkpoint schedule does not match the current run: bit-identical "
        "resume requires the same seed, iterations, burn-in and sample lag");
  }
  return cold::Status::OK();
}

/// Assignments + the eight count tables, in ColdState declaration order.
void WriteStateSection(PayloadWriter& w, const ColdState& s) {
  w.VecI32(s.post_community);
  w.VecI32(s.post_topic);
  w.VecI32(s.link_src_community);
  w.VecI32(s.link_dst_community);
  w.VecI32(s.n_ic_flat());
  w.VecI32(s.n_i_flat());
  w.VecI32(s.n_ck_flat());
  w.VecI32(s.n_c_flat());
  w.VecI32(s.n_ckt_flat());
  w.VecI32(s.n_kv_flat());
  w.VecI32(s.n_k_flat());
  w.VecI32(s.n_cc_flat());
}

cold::Status ReadStateSection(PayloadReader& r, ColdState* s) {
  COLD_RETURN_NOT_OK(r.VecI32(&s->post_community, s->post_community.size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->post_topic, s->post_topic.size()));
  COLD_RETURN_NOT_OK(
      r.VecI32(&s->link_src_community, s->link_src_community.size()));
  COLD_RETURN_NOT_OK(
      r.VecI32(&s->link_dst_community, s->link_dst_community.size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->mut_n_ic_flat(), s->n_ic_flat().size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->mut_n_i_flat(), s->n_i_flat().size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->mut_n_ck_flat(), s->n_ck_flat().size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->mut_n_c_flat(), s->n_c_flat().size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->mut_n_ckt_flat(), s->n_ckt_flat().size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->mut_n_kv_flat(), s->n_kv_flat().size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->mut_n_k_flat(), s->n_k_flat().size()));
  COLD_RETURN_NOT_OK(r.VecI32(&s->mut_n_cc_flat(), s->n_cc_flat().size()));
  return cold::Status::OK();
}

void WriteRngState(PayloadWriter& w, const cold::RngState& s) {
  w.U64(s.state);
  w.U64(s.inc);
  w.U8(s.have_spare_normal ? 1 : 0);
  w.F64(s.spare_normal);
}

cold::Status ReadRngState(PayloadReader& r, cold::RngState* s) {
  uint8_t spare = 0;
  COLD_RETURN_NOT_OK(r.U64(&s->state));
  COLD_RETURN_NOT_OK(r.U64(&s->inc));
  COLD_RETURN_NOT_OK(r.U8(&spare));
  COLD_RETURN_NOT_OK(r.F64(&s->spare_normal));
  s->have_spare_normal = spare != 0;
  return cold::Status::OK();
}

void PackU32(std::string* s, size_t offset, uint32_t v) {
  std::memcpy(s->data() + offset, &v, sizeof v);
}

uint32_t UnpackU32(const std::string& s, size_t offset) {
  uint32_t v;
  std::memcpy(&v, s.data() + offset, sizeof v);
  return v;
}

uint64_t UnpackU64(const std::string& s, size_t offset) {
  uint64_t v;
  std::memcpy(&v, s.data() + offset, sizeof v);
  return v;
}

}  // namespace

// --- CheckpointManager ----------------------------------------------------

std::string CheckpointManager::FileName(int sweep) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%08d.cold", sweep);
  return buf;
}

cold::Status CheckpointManager::Init() const {
  if (options_.dir.empty()) {
    return cold::Status::InvalidArgument("checkpoint directory not set");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return cold::Status::IOError("cannot create checkpoint directory " +
                                 options_.dir + ": " + ec.message());
  }
  return cold::Status::OK();
}

std::vector<std::pair<int, std::string>> CheckpointManager::ListFiles() const {
  std::vector<std::pair<int, std::string>> files;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.dir, ec);
  if (ec) return files;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    // ckpt-<digits>.cold
    constexpr std::string_view prefix = "ckpt-";
    constexpr std::string_view suffix = ".cold";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    files.emplace_back(std::atoi(digits.c_str()), entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

cold::Status CheckpointManager::Write(const CheckpointMeta& meta,
                                      std::string_view payload) const {
  std::string file;
  file.reserve(kHeaderSize + payload.size());
  file.append(kMagic, sizeof kMagic);
  {
    PayloadWriter w(&file);
    w.U32(meta.format_version);
    w.U32(static_cast<uint32_t>(meta.flavor));
    w.I32(meta.sweep);
    w.U32(0);  // pad, keeps 64-bit fields aligned
    w.U64(meta.data_fingerprint);
    w.U64(payload.size());
    w.U32(Crc32(payload));
    w.U32(0);  // header CRC placeholder
  }
  PackU32(&file, kHeaderCrcOffset,
          Crc32(std::string_view(file.data(), kHeaderCrcOffset)));
  file.append(payload);

  const std::string path =
      (std::filesystem::path(options_.dir) / FileName(meta.sweep)).string();
  COLD_RETURN_NOT_OK(AtomicWriteFile(path, file));

  // Rotation: prune everything older than the newest keep_last entries. A
  // failed unlink is only logged — losing a stale checkpoint to a full or
  // read-only disk should not abort training.
  const size_t keep = static_cast<size_t>(std::max(options_.keep_last, 1));
  auto files = ListFiles();
  while (files.size() > keep) {
    std::error_code ec;
    std::filesystem::remove(files.front().second, ec);
    if (ec) {
      COLD_LOG(kWarning) << "cannot prune checkpoint " << files.front().second
                         << ": " << ec.message();
    }
    files.erase(files.begin());
  }
  return cold::Status::OK();
}

cold::Result<LoadedCheckpoint> CheckpointManager::ReadFile(
    const std::string& path) {
  COLD_ASSIGN_OR_RETURN(std::string raw, ReadFileToString(path));
  if (raw.size() < kHeaderSize) {
    return cold::Status::IOError(path + ": truncated checkpoint header");
  }
  if (std::memcmp(raw.data(), kMagic, sizeof kMagic) != 0) {
    return cold::Status::IOError(path + ": not a COLD checkpoint file");
  }
  const uint32_t stored_header_crc = UnpackU32(raw, kHeaderCrcOffset);
  if (Crc32(std::string_view(raw.data(), kHeaderCrcOffset)) !=
      stored_header_crc) {
    return cold::Status::IOError(path +
                                 ": checkpoint header corrupt (CRC mismatch)");
  }
  LoadedCheckpoint out;
  out.meta.format_version = UnpackU32(raw, 8);
  out.meta.flavor = static_cast<CheckpointFlavor>(UnpackU32(raw, 12));
  out.meta.sweep = static_cast<int32_t>(UnpackU32(raw, 16));
  out.meta.data_fingerprint = UnpackU64(raw, 24);
  if (out.meta.format_version != kCheckpointFormatVersion) {
    return cold::Status::IOError(
        path + ": unsupported checkpoint format version " +
        std::to_string(out.meta.format_version) + " (expected " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  if (out.meta.flavor != CheckpointFlavor::kSerial &&
      out.meta.flavor != CheckpointFlavor::kParallel) {
    return cold::Status::IOError(path + ": invalid checkpoint flavor");
  }
  const uint64_t payload_size = UnpackU64(raw, 32);
  if (payload_size != raw.size() - kHeaderSize) {
    return cold::Status::IOError(path + ": checkpoint payload truncated");
  }
  out.payload = raw.substr(kHeaderSize);
  if (Crc32(out.payload) != UnpackU32(raw, 40)) {
    return cold::Status::IOError(path +
                                 ": checkpoint payload corrupt (CRC mismatch)");
  }
  out.path = path;
  return out;
}

cold::Result<LoadedCheckpoint> CheckpointManager::LoadLatest() const {
  auto files = ListFiles();
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    auto loaded = ReadFile(it->second);
    if (loaded.ok()) return loaded;
    COLD_LOG(kWarning) << "skipping unusable checkpoint: "
                       << loaded.status().message();
  }
  return cold::Status::NotFound("no usable checkpoint in " + options_.dir);
}

// --- dataset fingerprint --------------------------------------------------

uint64_t DataFingerprint(const text::PostStore& posts,
                         const graph::Digraph* links) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;  // FNV-1a prime
    }
  };
  mix(static_cast<uint64_t>(posts.num_users()));
  mix(static_cast<uint64_t>(posts.num_posts()));
  mix(static_cast<uint64_t>(posts.num_time_slices()));
  for (text::PostId d = 0; d < posts.num_posts(); ++d) {
    mix(static_cast<uint64_t>(posts.author(d)));
    mix(static_cast<uint64_t>(posts.time(d)));
    for (text::WordId w : posts.words(d)) mix(static_cast<uint64_t>(w));
  }
  if (links != nullptr) {
    mix(static_cast<uint64_t>(links->num_nodes()));
    mix(static_cast<uint64_t>(links->num_edges()));
    for (graph::EdgeId e = 0; e < links->num_edges(); ++e) {
      mix(static_cast<uint64_t>(links->edge(e).src));
      mix(static_cast<uint64_t>(links->edge(e).dst));
    }
  }
  return h;
}

// --- serial sampler state -------------------------------------------------
//
// Payload: run header, completed-sweep count, state section, RNG, then the
// post-burn-in sample accumulator (without it a resumed run would average
// over fewer samples than the uninterrupted run and diverge).

cold::Status ColdGibbsSampler::SerializeState(std::string* out) const {
  if (!initialized_) {
    return cold::Status::FailedPrecondition(
        "call Init() before SerializeState()");
  }
  out->clear();
  PayloadWriter w(out);
  WriteRunHeader(w, config_, *state_, use_network_, lambda0_);
  w.I32(iterations_run_);
  WriteStateSection(w, *state_);
  WriteRngState(w, sampler_.SaveState());
  w.I32(num_accumulated_);
  w.U8(accumulated_ != nullptr ? 1 : 0);
  if (accumulated_ != nullptr) {
    w.VecF64(accumulated_->pi);
    w.VecF64(accumulated_->theta);
    w.VecF64(accumulated_->eta);
    w.VecF64(accumulated_->phi);
    w.VecF64(accumulated_->psi);
  }
  return cold::Status::OK();
}

cold::Status ColdGibbsSampler::RestoreState(const std::string& payload) {
  if (!initialized_) {
    return cold::Status::FailedPrecondition(
        "call Init() before RestoreState()");
  }
  PayloadReader r(payload);
  // Everything is read into locals / a state copy and committed only after
  // all checks pass, so a payload that fails validation leaves the sampler
  // untouched.
  double lambda0 = lambda0_;
  COLD_RETURN_NOT_OK(
      CheckRunHeader(r, config_, *state_, use_network_, &lambda0));
  int32_t iterations_run = 0;
  COLD_RETURN_NOT_OK(r.I32(&iterations_run));
  if (iterations_run < 0 || iterations_run > config_.iterations) {
    return cold::Status::IOError("checkpoint sweep index out of range");
  }
  ColdState restored = *state_;
  COLD_RETURN_NOT_OK(ReadStateSection(r, &restored));
  cold::RngState rng;
  COLD_RETURN_NOT_OK(ReadRngState(r, &rng));
  int32_t num_accumulated = 0;
  uint8_t has_accumulated = 0;
  COLD_RETURN_NOT_OK(r.I32(&num_accumulated));
  COLD_RETURN_NOT_OK(r.U8(&has_accumulated));
  std::unique_ptr<ColdEstimates> accumulated;
  if (has_accumulated != 0) {
    accumulated = std::make_unique<ColdEstimates>();
    accumulated->U = state_->U();
    accumulated->C = state_->C();
    accumulated->K = state_->K();
    accumulated->T = state_->T();
    accumulated->V = state_->V();
    const size_t U = static_cast<size_t>(state_->U());
    const size_t C = static_cast<size_t>(state_->C());
    const size_t K = static_cast<size_t>(state_->K());
    const size_t T = static_cast<size_t>(state_->T());
    const size_t V = static_cast<size_t>(state_->V());
    COLD_RETURN_NOT_OK(r.VecF64(&accumulated->pi, U * C));
    COLD_RETURN_NOT_OK(r.VecF64(&accumulated->theta, C * K));
    COLD_RETURN_NOT_OK(r.VecF64(&accumulated->eta, C * C));
    COLD_RETURN_NOT_OK(r.VecF64(&accumulated->phi, K * V));
    COLD_RETURN_NOT_OK(r.VecF64(&accumulated->psi, K * C * T));
  } else if (num_accumulated != 0) {
    return cold::Status::IOError(
        "checkpoint accumulated-sample count inconsistent");
  }
  if (num_accumulated < 0) {
    return cold::Status::IOError(
        "checkpoint accumulated-sample count negative");
  }
  COLD_RETURN_NOT_OK(r.ExpectEnd());

  // Beyond the CRC: the count tables must agree with a recount from the
  // restored assignments against the live dataset.
  cold::Status invariants =
      restored.CheckInvariants(posts_, links_, use_network_);
  if (!invariants.ok()) {
    return cold::Status::IOError("checkpoint state inconsistent: " +
                                 invariants.message());
  }
  *state_ = std::move(restored);
  sampler_.RestoreState(rng);
  lambda0_ = lambda0;
  // The derived-value caches are functions of the counters just swapped in.
  RebuildDerivedTables();
  // Alias tables are derived state too — never serialized. Invalidating
  // the whole bank here, combined with the sweep-start invalidation in
  // RunIteration(), makes resume bit-identical on the sparse path: rows
  // rebuild lazily from the restored counters exactly as they would in an
  // uninterrupted run.
  if (sparse_active_) alias_bank_.InvalidateAll();
  accumulated_ = std::move(accumulated);
  num_accumulated_ = num_accumulated;
  iterations_run_ = iterations_run;
  return cold::Status::OK();
}

// --- parallel trainer state -----------------------------------------------
//
// Payload: run header, completed-superstep count, state section. Scatter
// draws from RNG streams keyed by (superstep, chunk), so the superstep count
// is all the RNG state there is, and a resumed run is bit-identical at any
// worker count.

cold::Status ParallelColdTrainer::SerializeState(std::string* out) const {
  if (!initialized_) {
    return cold::Status::FailedPrecondition(
        "call Init() before SerializeState()");
  }
  out->clear();
  PayloadWriter w(out);
  WriteRunHeader(w, config_, *state_, use_network_, lambda0_);
  w.I32(supersteps_run_);
  WriteStateSection(w, *state_);
  return cold::Status::OK();
}

cold::Status ParallelColdTrainer::RestoreState(const std::string& payload) {
  if (!initialized_) {
    return cold::Status::FailedPrecondition(
        "call Init() before RestoreState()");
  }
  PayloadReader r(payload);
  // The restored assignments and counters are read into a copy of the
  // current state (which supplies the expected dimensions), validated, and
  // only then installed.
  ColdState restored = *state_;
  double lambda0 = lambda0_;
  COLD_RETURN_NOT_OK(
      CheckRunHeader(r, config_, restored, use_network_, &lambda0));
  int32_t supersteps_run = 0;
  COLD_RETURN_NOT_OK(r.I32(&supersteps_run));
  if (supersteps_run < 0 || supersteps_run > config_.iterations) {
    return cold::Status::IOError("checkpoint sweep index out of range");
  }
  COLD_RETURN_NOT_OK(ReadStateSection(r, &restored));
  COLD_RETURN_NOT_OK(r.ExpectEnd());

  cold::Status invariants =
      restored.CheckInvariants(posts_, links_, use_network_);
  if (!invariants.ok()) {
    return cold::Status::IOError("checkpoint state inconsistent: " +
                                 invariants.message());
  }
  static_cast<ColdState&>(*state_) = std::move(restored);
  lambda0_ = lambda0;
  supersteps_run_ = supersteps_run;
  // Scatter draws are keyed by (superstep, chunk); realign the engine's
  // superstep counter so the resumed run replays the same RNG streams as an
  // uninterrupted one.
  EngineSetSuperstepIndex(supersteps_run_);
  return cold::Status::OK();
}

}  // namespace cold::core
