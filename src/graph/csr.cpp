#include "graph/csr.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "util/radix_sort.hpp"

namespace g500::graph {

SeenSet::SeenSet()
    : dst_(kInitialSlots),
      stamp_(kInitialSlots, 0),
      mask_(kInitialSlots - 1),
      shift_(64 - std::countr_zero(kInitialSlots)) {}

void SeenSet::next_row() {
  size_ = 0;
  if (++row_ == 0) {
    // The stamp wrapped: clear the table once every 2^32 rows.
    std::ranges::fill(stamp_, 0);
    row_ = 1;
  }
}

void SeenSet::grow() {
  const std::vector<VertexId> dst =
      std::exchange(dst_, std::vector<VertexId>(2 * dst_.size()));
  const std::vector<std::uint32_t> stamp =
      std::exchange(stamp_, std::vector<std::uint32_t>(2 * stamp_.size(), 0));
  mask_ = stamp_.size() - 1;
  --shift_;
  // Only the current row survives, under a fresh stamp.
  const std::uint32_t row = std::exchange(row_, 1);
  size_ = 0;
  for (std::size_t i = 0; i < stamp.size(); ++i) {
    if (stamp[i] == row) insert(dst[i]);
  }
}

void dedup_min_weight(std::vector<WireEdge>& edges) {
  sort_by_source_weight(edges);
  SeenSet seen;
  keep_first_copies(
      edges, [](const WireEdge& e) { return e.src; },
      [](const WireEdge& e) { return e.dst; }, seen);
}

void sort_by_source_weight(std::vector<WireEdge>& edges) {
  // Ties on weight go by dst, so the order is total on deduplicated edges.
  util::radix_sort(
      edges.begin(), edges.end(), [](const WireEdge& e) { return e.src; },
      [](const WireEdge& a, const WireEdge& b) {
        if (a.weight != b.weight) return a.weight < b.weight;
        return a.dst < b.dst;
      });
}

namespace {

/// One change to a row: edge to `dst` now weighs `weight`, or is gone when
/// `removed`.
struct RowChange {
  VertexId dst;
  Weight weight;
  bool removed;
};

/// (weight, dst): the order of every LocalCsr row.
bool lighter(Weight wa, VertexId a, Weight wb, VertexId b) {
  return wa != wb ? wa < wb : a < b;
}

/// Append edges [first, last) of (dst, ws), a row in (weight, dst) order,
/// to (out_dst, out_w) with `changes` (sorted by dst) applied.  The edges
/// no change names keep their order, so only the upserts are sorted, then
/// merged in.  `upserts` is scratch.
void splice_row(std::span<const VertexId> dst, std::span<const Weight> ws,
                std::uint64_t first, std::uint64_t last,
                std::span<const RowChange> changes,
                std::vector<RowChange>& upserts, std::vector<VertexId>& out_dst,
                std::vector<Weight>& out_w) {
  upserts.clear();
  for (const auto& c : changes) {
    if (!c.removed) upserts.push_back(c);
  }
  std::sort(upserts.begin(), upserts.end(),
            [](const RowChange& a, const RowChange& b) {
              return lighter(a.weight, a.dst, b.weight, b.dst);
            });
  auto next = upserts.begin();
  const auto emit_next = [&] {
    out_dst.push_back(next->dst);
    out_w.push_back(next->weight);
    ++next;
  };
  for (std::uint64_t e = first; e < last; ++e) {
    if (std::ranges::binary_search(changes, dst[e], {}, &RowChange::dst)) {
      continue;  // reweighted or removed
    }
    while (next != upserts.end() &&
           lighter(next->weight, next->dst, ws[e], dst[e])) {
      emit_next();
    }
    out_dst.push_back(dst[e]);
    out_w.push_back(ws[e]);
  }
  while (next != upserts.end()) emit_next();
}

template <typename T>
void append(std::vector<T>& out, std::span<const T> in, std::uint64_t first,
            std::uint64_t last) {
  out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(first),
             in.begin() + static_cast<std::ptrdiff_t>(last));
}

void require_sorted(std::span<const EdgeChange> changes) {
  for (std::size_t i = 1; i < changes.size(); ++i) {
    const EdgeChange& a = changes[i - 1];
    const EdgeChange& b = changes[i];
    if (a.src > b.src || (a.src == b.src && a.dst >= b.dst)) {
      throw std::invalid_argument(
          "LocalCsr::splice: changes not sorted by distinct (src, dst)");
    }
  }
}

}  // namespace

LocalCsr::LocalCsr(LocalId num_local, std::vector<WireEdge> edges)
    : num_local_(num_local) {
  for (const auto& e : edges) {
    if (e.src >= num_local) {
      throw std::out_of_range("LocalCsr: edge source is not a local index");
    }
  }
  sort_by_source_weight(edges);

  offsets_store_.assign(static_cast<std::size_t>(num_local) + 1, 0);
  dst_store_.reserve(edges.size());
  w_store_.reserve(edges.size());
  for (const auto& e : edges) {
    ++offsets_store_[static_cast<std::size_t>(e.src) + 1];
    dst_store_.push_back(e.dst);
    w_store_.push_back(e.weight);
  }
  for (std::size_t i = 1; i < offsets_store_.size(); ++i) {
    offsets_store_[i] += offsets_store_[i - 1];
  }
  bind_owned();
}

LocalCsr LocalCsr::view(LocalId num_local,
                        std::span<const std::uint64_t> offsets,
                        std::span<const VertexId> dst,
                        std::span<const Weight> w) {
  if (offsets.size() != static_cast<std::size_t>(num_local) + 1 ||
      offsets.front() != 0 || offsets.back() != dst.size() ||
      dst.size() != w.size()) {
    throw std::invalid_argument("LocalCsr::view: inconsistent array shapes");
  }
  LocalCsr csr;
  csr.num_local_ = num_local;
  csr.owned_ = false;
  csr.offsets_ = offsets;
  csr.adj_dst_ = dst;
  csr.adj_w_ = w;
  return csr;
}

LocalCsr LocalCsr::splice(std::span<const EdgeChange> changes) const {
  require_sorted(changes);
  if (!changes.empty() && changes.back().src >= num_local_) {
    throw std::out_of_range("LocalCsr::splice: source is not a local index");
  }
  LocalCsr next;
  next.num_local_ = num_local_;
  next.offsets_store_.assign(static_cast<std::size_t>(num_local_) + 1, 0);
  next.dst_store_.reserve(num_edges() + changes.size());
  next.w_store_.reserve(num_edges() + changes.size());

  // Rows [u, end) move as one block, their offsets shifted with it.
  const auto copy_rows = [&](LocalId u, LocalId end) {
    if (u == end) return;
    const std::uint64_t first = offsets_[u];
    const std::uint64_t base = next.dst_store_.size();
    for (LocalId v = u + 1; v <= end; ++v) {
      next.offsets_store_[v] = offsets_[v] - first + base;
    }
    append(next.dst_store_, adj_dst_, first, offsets_[end]);
    append(next.w_store_, adj_w_, first, offsets_[end]);
  };
  std::vector<RowChange> row, upserts;
  LocalId u = 0;  // the first row not yet written
  for (std::size_t i = 0; i < changes.size();) {
    const LocalId src = changes[i].src;
    row.clear();
    for (; i < changes.size() && changes[i].src == src; ++i) {
      row.push_back({changes[i].dst, changes[i].weight, changes[i].removed});
    }
    copy_rows(u, src);
    splice_row(adj_dst_, adj_w_, offsets_[src], offsets_[src + 1], row,
               upserts, next.dst_store_, next.w_store_);
    next.offsets_store_[src + 1] = next.dst_store_.size();
    u = src + 1;
  }
  copy_rows(u, num_local_);
  next.bind_owned();
  return next;
}

void LocalCsr::bind_owned() {
  owned_ = true;
  offsets_ = offsets_store_;
  adj_dst_ = dst_store_;
  adj_w_ = w_store_;
}

LocalCsr& LocalCsr::operator=(const LocalCsr& other) {
  if (this == &other) return *this;
  {
    // Equal rows split equally, so a copy may share the other's split.
    const std::lock_guard lock(other.split_mutex_);
    split_ = other.split_;
  }
  num_local_ = other.num_local_;
  if (other.owned_) {
    offsets_store_ = other.offsets_store_;
    dst_store_ = other.dst_store_;
    w_store_ = other.w_store_;
    bind_owned();
  } else {
    // Copies of a view share the external storage.
    offsets_store_.clear();
    dst_store_.clear();
    w_store_.clear();
    owned_ = false;
    offsets_ = other.offsets_;
    adj_dst_ = other.adj_dst_;
    adj_w_ = other.adj_w_;
  }
  return *this;
}

LocalCsr& LocalCsr::operator=(LocalCsr&& other) noexcept {
  if (this == &other) return *this;
  num_local_ = other.num_local_;
  owned_ = other.owned_;
  // Moving a vector transfers its heap buffer, so spans into it stay valid.
  offsets_store_ = std::move(other.offsets_store_);
  dst_store_ = std::move(other.dst_store_);
  w_store_ = std::move(other.w_store_);
  offsets_ = other.offsets_;
  adj_dst_ = other.adj_dst_;
  adj_w_ = other.adj_w_;
  split_ = std::move(other.split_);
  other.num_local_ = 0;
  other.owned_ = true;
  other.offsets_ = {};
  other.adj_dst_ = {};
  other.adj_w_ = {};
  return *this;
}

std::uint64_t LocalCsr::resident_bytes() const noexcept {
  return offsets_store_.capacity() * sizeof(std::uint64_t) +
         dst_store_.capacity() * sizeof(VertexId) +
         w_store_.capacity() * sizeof(Weight);
}

std::uint64_t gallop_split(std::span<const Weight> w, std::uint64_t first,
                           std::uint64_t last, Weight delta) {
  // Probe at growing distances; every weight before `lo` is light, and a
  // probe that lands on a heavy weight (or past the row) bounds the rest.
  std::uint64_t lo = first;
  std::uint64_t probe = first;
  for (std::uint64_t step = 1; probe < last && w[probe] < delta; step *= 2) {
    lo = probe + 1;
    probe = lo + step;
  }
  const auto at = [&w](std::uint64_t i) {
    return w.begin() + static_cast<std::ptrdiff_t>(i);
  };
  return static_cast<std::uint64_t>(
      std::lower_bound(at(lo), at(std::min(probe, last)), delta) - at(0));
}

std::uint64_t LocalCsr::split_at(LocalId u, Weight delta) const {
  return gallop_split(adj_w_, offsets_[u], offsets_[u + 1], delta);
}

std::shared_ptr<const DeltaSplit> LocalCsr::delta_split(Weight delta) const {
  const std::lock_guard lock(split_mutex_);
  if (split_ == nullptr ||
      std::bit_cast<std::uint32_t>(split_->delta) !=
          std::bit_cast<std::uint32_t>(delta)) {
    split_ = std::make_shared<const DeltaSplit>(*this, delta);
  }
  return split_;
}

DeltaSplit::DeltaSplit(const LocalCsr& csr, Weight width) : delta(width) {
  // Two passes, so that every array is allocated once at its final size
  // (growing them in one pass and trimming them costs several times more):
  // the first finds the splits and sizes, the second copies.
  const LocalId n = csr.num_local();
  light_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  std::size_t num_light_rows = 0;
  std::size_t num_heavy_rows = 0;
  for (LocalId u = 0; u < n; ++u) {
    const std::uint64_t split = csr.split_at(u, delta);
    const std::uint64_t light = split - csr.edges_begin(u);
    light_offsets[u + 1] = light_offsets[u] + light;
    num_light_rows += light != 0 ? 1 : 0;
    num_heavy_rows += split != csr.edges_end(u) ? 1 : 0;
  }
  light_dst.resize(light_offsets[n]);
  light_w.resize(light_offsets[n]);
  light_rows.reserve(num_light_rows);
  heavy_rows.reserve(num_heavy_rows);
  const auto dst = csr.adjacency();
  const auto w = csr.weights();
  for (LocalId u = 0; u < n; ++u) {
    const std::uint64_t first = csr.edges_begin(u);
    const std::uint64_t light = light_degree(u);
    if (light != 0) {
      const auto at = static_cast<std::ptrdiff_t>(light_offsets[u]);
      std::ranges::copy(dst.subspan(first, light), light_dst.begin() + at);
      std::ranges::copy(w.subspan(first, light), light_w.begin() + at);
      light_rows.push_back({u, w[first]});
    }
    const std::uint64_t split = first + light;
    if (split != csr.edges_end(u)) heavy_rows.push_back({u, w[split]});
  }
}

std::uint64_t DeltaSplit::bytes() const noexcept {
  return light_offsets.capacity() * sizeof(std::uint64_t) +
         light_dst.capacity() * sizeof(VertexId) +
         light_w.capacity() * sizeof(Weight) +
         (light_rows.capacity() + heavy_rows.capacity()) * sizeof(PullRow);
}

}  // namespace g500::graph
