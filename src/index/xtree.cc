#include "src/index/xtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

#include "src/kernels/batched_distance.h"
#include "src/knn/delta_scan.h"

namespace hos::index {

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

struct XTree::Node {
  explicit Node(bool leaf, int num_dims) : is_leaf(leaf), mbr(num_dims) {}

  bool is_leaf;
  /// Capacity multiple; > 1 marks a supernode (directory nodes only).
  int supernode_factor = 1;
  Mbr mbr;
  std::vector<std::unique_ptr<Node>> children;  // directory entries
  /// Directory nodes: the children's boxes, dimension-major — child c spans
  /// [child_lo[dim * children.size() + c], child_hi[...]] — so a query
  /// expands the node with one kernels::BoxMinDistances sweep instead of
  /// chasing every child's pointer. Kept in step by SyncChildBoxes.
  std::vector<double> child_lo;
  std::vector<double> child_hi;
  std::vector<data::PointId> points;            // leaf entries
  /// Leaves: position of points[0] in the leaf-ordered snapshot; points[j]
  /// sits at snapshot_offset + j. Meaningful while the tree holds one.
  size_t snapshot_offset = 0;

  size_t NumEntries() const {
    return is_leaf ? points.size() : children.size();
  }
};

namespace {

// One candidate split: a permutation of entry indices and a cut position;
// entries order[0..split_at) go left, the rest right.
struct SplitPlan {
  std::vector<size_t> order;
  size_t split_at = 0;
  double overlap_ratio = std::numeric_limits<double>::infinity();
  double area_sum = std::numeric_limits<double>::infinity();
  bool valid = false;
};

// Jaccard overlap of two boxes; robust for degenerate (zero-area) boxes by
// falling back to a margin-based ratio.
double OverlapRatio(const Mbr& a, const Mbr& b) {
  double inter = a.IntersectionArea(b);
  double denom = a.Area() + b.Area() - inter;
  if (denom > 0.0) return inter / denom;
  // Degenerate volumes: compare shared margin instead.
  if (!a.Intersects(b)) return 0.0;
  double margin_sum = a.Margin() + b.Margin();
  if (margin_sum <= 0.0) return 1.0;  // two identical points
  Mbr shared(a.num_dims());
  shared.Expand(a);
  // Intersection margin: accumulate per-dim overlap lengths.
  double inter_margin = 0.0;
  for (int dim = 0; dim < a.num_dims(); ++dim) {
    double lo = std::max(a.min(dim), b.min(dim));
    double hi = std::min(a.max(dim), b.max(dim));
    if (hi > lo) inter_margin += hi - lo;
  }
  return 2.0 * inter_margin / margin_sum;
}

// Prefix/suffix bounding boxes of `boxes` in the order given by `order`.
void BuildCovers(const std::vector<Mbr>& boxes,
                 const std::vector<size_t>& order, std::vector<Mbr>* prefix,
                 std::vector<Mbr>* suffix) {
  const int dims = boxes.front().num_dims();
  const size_t n = order.size();
  prefix->assign(n, Mbr(dims));
  suffix->assign(n, Mbr(dims));
  Mbr acc(dims);
  for (size_t i = 0; i < n; ++i) {
    acc.Expand(boxes[order[i]]);
    (*prefix)[i] = acc;
  }
  acc = Mbr(dims);
  for (size_t i = n; i-- > 0;) {
    acc.Expand(boxes[order[i]]);
    (*suffix)[i] = acc;
  }
}

// R*-tree topological split: choose the axis minimising the summed margin
// over all balanced distributions, then the distribution on that axis with
// minimal overlap (ties: minimal total area).
SplitPlan ChooseRStarSplit(const std::vector<Mbr>& boxes, size_t min_fill) {
  const size_t n = boxes.size();
  const int dims = boxes.front().num_dims();
  assert(n >= 2 * min_fill);

  int best_axis = 0;
  double best_margin = std::numeric_limits<double>::infinity();
  std::vector<Mbr> prefix, suffix;

  auto order_by = [&](int axis, bool by_min) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      double ka = by_min ? boxes[a].min(axis) : boxes[a].max(axis);
      double kb = by_min ? boxes[b].min(axis) : boxes[b].max(axis);
      return ka < kb;
    });
    return order;
  };

  for (int axis = 0; axis < dims; ++axis) {
    double margin_sum = 0.0;
    for (bool by_min : {true, false}) {
      auto order = order_by(axis, by_min);
      BuildCovers(boxes, order, &prefix, &suffix);
      for (size_t k = min_fill; k <= n - min_fill; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
    }
    if (margin_sum < best_margin) {
      best_margin = margin_sum;
      best_axis = axis;
    }
  }

  SplitPlan best;
  for (bool by_min : {true, false}) {
    auto order = order_by(best_axis, by_min);
    BuildCovers(boxes, order, &prefix, &suffix);
    for (size_t k = min_fill; k <= n - min_fill; ++k) {
      double ratio = OverlapRatio(prefix[k - 1], suffix[k]);
      double area = prefix[k - 1].Area() + suffix[k].Area();
      if (!best.valid || ratio < best.overlap_ratio ||
          (ratio == best.overlap_ratio && area < best.area_sum)) {
        best.valid = true;
        best.order = order;
        best.split_at = k;
        best.overlap_ratio = ratio;
        best.area_sum = area;
      }
    }
  }
  return best;
}

// X-tree fallback: balanced center-sorted split searched over every axis,
// keeping the axis with minimal overlap. Approximates the split-history
// driven "overlap-minimal split" of the original paper.
SplitPlan ChooseMinOverlapSplit(const std::vector<Mbr>& boxes,
                                size_t min_fill) {
  const size_t n = boxes.size();
  const int dims = boxes.front().num_dims();
  SplitPlan best;
  std::vector<Mbr> prefix, suffix;
  for (int axis = 0; axis < dims; ++axis) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      double ca = boxes[a].min(axis) + boxes[a].max(axis);
      double cb = boxes[b].min(axis) + boxes[b].max(axis);
      return ca < cb;
    });
    BuildCovers(boxes, order, &prefix, &suffix);
    for (size_t k = min_fill; k <= n - min_fill; ++k) {
      double ratio = OverlapRatio(prefix[k - 1], suffix[k]);
      double area = prefix[k - 1].Area() + suffix[k].Area();
      if (!best.valid || ratio < best.overlap_ratio ||
          (ratio == best.overlap_ratio && area < best.area_sum)) {
        best.valid = true;
        best.order = order;
        best.split_at = k;
        best.overlap_ratio = ratio;
        best.area_sum = area;
      }
    }
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / insertion
// ---------------------------------------------------------------------------

XTree::XTree(const data::Dataset& dataset, knn::MetricKind metric,
             XTreeConfig config)
    : dataset_(&dataset), metric_(metric), config_(config),
      base_rows_(dataset.size()) {
  assert(config_.max_entries >= 4);
  assert(config_.min_fill > 0.0 && config_.min_fill <= 0.5);
}

XTree::~XTree() = default;
XTree::XTree(XTree&&) noexcept = default;
XTree& XTree::operator=(XTree&&) noexcept = default;

int XTree::Capacity(const Node& node) const {
  return config_.max_entries * node.supernode_factor;
}

Status XTree::Insert(data::PointId id) {
  if (id >= dataset_->size()) {
    return Status::OutOfRange("point id " + std::to_string(id) +
                              " outside dataset of size " +
                              std::to_string(dataset_->size()));
  }
  // A hand-inserted appended row moves from the delta scan's coverage to
  // the tree's, which is only unambiguous when the insertion is
  // contiguous: skipping ahead would leave rows in [base_rows_, id)
  // covered by neither (silently missing from every query), and without
  // the bump the row would be double-counted by tree and delta scan.
  if (static_cast<size_t>(id) > base_rows_) {
    return Status::FailedPrecondition(
        "inserting appended row " + std::to_string(id) +
        " ahead of the delta boundary " + std::to_string(base_rows_) +
        " would leave earlier appended rows covered by neither the tree "
        "nor the delta scan; insert appended rows in order (or bulk-load "
        "a new tree to fold the whole delta)");
  }
  view_.reset();  // snapshot may no longer cover the inserted row
  if (static_cast<size_t>(id) == base_rows_) ++base_rows_;
  auto point = dataset_->Row(id);
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>(/*leaf=*/true, dataset_->num_dims());
  }
  auto sibling = InsertRecursive(root_.get(), id, point);
  if (sibling != nullptr) {
    auto new_root = std::make_unique<Node>(/*leaf=*/false,
                                           dataset_->num_dims());
    new_root->mbr.Expand(root_->mbr);
    new_root->mbr.Expand(sibling->mbr);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    SyncChildBoxes(new_root.get());
    root_ = std::move(new_root);
  }
  ++num_points_;
  return Status::OK();
}

int XTree::MinFill(const Node& node) const {
  // Underflow bound: fraction of the *base* capacity, so supernodes are
  // allowed to shrink back toward ordinary nodes before dissolving.
  (void)node;
  return std::max(2, static_cast<int>(config_.max_entries * config_.min_fill));
}

void XTree::CollectPoints(const Node* node,
                          std::vector<data::PointId>* out) {
  if (node->is_leaf) {
    out->insert(out->end(), node->points.begin(), node->points.end());
    return;
  }
  for (const auto& child : node->children) CollectPoints(child.get(), out);
}

bool XTree::RemoveRecursive(Node* node, data::PointId id,
                            std::span<const double> point, bool is_root,
                            std::vector<data::PointId>* orphans,
                            bool* found) {
  if (node->is_leaf) {
    auto it = std::find(node->points.begin(), node->points.end(), id);
    if (it == node->points.end()) return false;
    node->points.erase(it);
    *found = true;
    RecomputeMbr(node);
    return !is_root &&
           static_cast<int>(node->points.size()) < MinFill(*node);
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    Node* child = node->children[i].get();
    if (!child->mbr.ContainsPoint(point)) continue;
    bool underfull =
        RemoveRecursive(child, id, point, /*is_root=*/false, orphans, found);
    if (!*found) continue;  // the point was in a different overlapping child
    if (underfull) {
      // Dissolve the child: its surviving points get reinserted later.
      CollectPoints(child, orphans);
      node->children.erase(node->children.begin() + i);
    }
    RecomputeMbr(node);
    return !is_root &&
           static_cast<int>(node->children.size()) < MinFill(*node);
  }
  return false;
}

Status XTree::Remove(data::PointId id) {
  if (root_ == nullptr || id >= dataset_->size()) {
    return Status::NotFound("point " + std::to_string(id) +
                            " is not in the tree");
  }
  view_.reset();
  auto point = dataset_->Row(id);
  bool found = false;
  std::vector<data::PointId> orphans;
  RemoveRecursive(root_.get(), id, point, /*is_root=*/true, &orphans, &found);
  if (!found) {
    return Status::NotFound("point " + std::to_string(id) +
                            " is not in the tree");
  }
  // The removed point and every orphan left the tree; reinserts add the
  // orphans back one by one.
  num_points_ -= 1 + orphans.size();

  // Shrink a degenerate root.
  while (!root_->is_leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children.front());
  }
  if (root_->NumEntries() == 0) {
    root_.reset();
  }
  for (data::PointId orphan : orphans) {
    HOS_RETURN_IF_ERROR(Insert(orphan));
  }
  return Status::OK();
}

XTree::Node* XTree::ChooseSubtree(Node* node,
                                  std::span<const double> point) const {
  assert(!node->is_leaf && !node->children.empty());
  const auto& children = node->children;

  // R*: when children are leaves, minimise overlap enlargement; otherwise
  // minimise area enlargement. The O(n^2) overlap criterion is skipped for
  // very wide supernodes.
  const bool use_overlap =
      children.front()->is_leaf && children.size() <= 128;

  Node* best = children.front().get();
  double best_primary = std::numeric_limits<double>::infinity();
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();

  for (const auto& child : children) {
    Mbr expanded = child->mbr;
    expanded.Expand(point);
    double area = child->mbr.Area();
    double enlarge = expanded.Area() - area;

    double primary = enlarge;
    if (use_overlap) {
      double overlap_before = 0.0, overlap_after = 0.0;
      for (const auto& other : children) {
        if (other.get() == child.get()) continue;
        overlap_before += child->mbr.IntersectionArea(other->mbr);
        overlap_after += expanded.IntersectionArea(other->mbr);
      }
      primary = overlap_after - overlap_before;
    }

    if (primary < best_primary ||
        (primary == best_primary && enlarge < best_enlarge) ||
        (primary == best_primary && enlarge == best_enlarge &&
         area < best_area)) {
      best = child.get();
      best_primary = primary;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

std::unique_ptr<XTree::Node> XTree::InsertRecursive(
    Node* node, data::PointId id, std::span<const double> point) {
  node->mbr.Expand(point);
  if (node->is_leaf) {
    node->points.push_back(id);
    if (static_cast<int>(node->points.size()) > Capacity(*node)) {
      return SplitLeaf(node);
    }
    return nullptr;
  }
  Node* child = ChooseSubtree(node, point);
  auto sibling = InsertRecursive(child, id, point);
  std::unique_ptr<Node> split;
  if (sibling != nullptr) {
    node->children.push_back(std::move(sibling));
    if (static_cast<int>(node->children.size()) > Capacity(*node)) {
      split = SplitDirectory(node);
    }
  }
  // The chosen child's box grew (and a split may have regrouped the
  // children; SplitDirectory already synced the two halves then).
  if (split == nullptr) SyncChildBoxes(node);
  return split;
}

void XTree::RecomputeMbr(Node* node) const {
  Mbr box(dataset_->num_dims());
  if (node->is_leaf) {
    for (data::PointId id : node->points) box.Expand(dataset_->Row(id));
  } else {
    for (const auto& child : node->children) box.Expand(child->mbr);
    SyncChildBoxes(node);
  }
  node->mbr = box;
}

void XTree::SyncChildBoxes(Node* node) {
  const size_t count = node->children.size();
  const int dims = node->mbr.num_dims();
  node->child_lo.resize(count * static_cast<size_t>(dims));
  node->child_hi.resize(count * static_cast<size_t>(dims));
  for (size_t c = 0; c < count; ++c) {
    const Mbr& box = node->children[c]->mbr;
    for (int dim = 0; dim < dims; ++dim) {
      node->child_lo[static_cast<size_t>(dim) * count + c] = box.min(dim);
      node->child_hi[static_cast<size_t>(dim) * count + c] = box.max(dim);
    }
  }
}

std::unique_ptr<XTree::Node> XTree::SplitLeaf(Node* leaf) {
  std::vector<Mbr> boxes;
  boxes.reserve(leaf->points.size());
  for (data::PointId id : leaf->points) {
    boxes.push_back(Mbr::OfPoint(dataset_->Row(id)));
  }
  const size_t min_fill = std::max<size_t>(
      2, static_cast<size_t>(boxes.size() * config_.min_fill));
  SplitPlan plan = ChooseRStarSplit(boxes, min_fill);
  assert(plan.valid);

  auto sibling = std::make_unique<Node>(/*leaf=*/true, dataset_->num_dims());
  std::vector<data::PointId> left, right;
  for (size_t i = 0; i < plan.order.size(); ++i) {
    data::PointId id = leaf->points[plan.order[i]];
    (i < plan.split_at ? left : right).push_back(id);
  }
  leaf->points = std::move(left);
  sibling->points = std::move(right);
  RecomputeMbr(leaf);
  RecomputeMbr(sibling.get());
  return sibling;
}

std::unique_ptr<XTree::Node> XTree::SplitDirectory(Node* node) {
  std::vector<Mbr> boxes;
  boxes.reserve(node->children.size());
  for (const auto& child : node->children) boxes.push_back(child->mbr);
  const size_t min_fill = std::max<size_t>(
      2, static_cast<size_t>(boxes.size() * config_.min_fill));

  SplitPlan plan = ChooseRStarSplit(boxes, min_fill);
  if (plan.overlap_ratio > config_.max_overlap_ratio) {
    SplitPlan alt = ChooseMinOverlapSplit(boxes, min_fill);
    if (alt.valid && alt.overlap_ratio < plan.overlap_ratio) plan = alt;
  }

  if (plan.overlap_ratio > config_.max_overlap_ratio &&
      node->supernode_factor < config_.max_supernode_factor) {
    // X-tree decision: splitting would create heavily overlapping directory
    // entries, so keep the node together as a supernode instead.
    ++node->supernode_factor;
    return nullptr;
  }

  auto sibling = std::make_unique<Node>(/*leaf=*/false, dataset_->num_dims());
  std::vector<std::unique_ptr<Node>> left, right;
  for (size_t i = 0; i < plan.order.size(); ++i) {
    auto& child = node->children[plan.order[i]];
    (i < plan.split_at ? left : right).push_back(std::move(child));
  }
  node->children = std::move(left);
  sibling->children = std::move(right);
  // A forced split of an oversized supernode can leave halves above the
  // base capacity; keep them as (smaller) supernodes so capacity holds.
  auto refit_factor = [this](Node* n) {
    n->supernode_factor = std::max<int>(
        1, static_cast<int>((n->children.size() + config_.max_entries - 1) /
                            config_.max_entries));
  };
  refit_factor(node);
  refit_factor(sibling.get());
  RecomputeMbr(node);
  RecomputeMbr(sibling.get());
  return sibling;
}

void XTree::RefreshKernelView() {
  // Leaves in depth-first order: siblings, which best-first search tends
  // to visit together, sit next to each other in the snapshot.
  std::vector<data::PointId> order;
  order.reserve(num_points_);
  std::function<void(Node*)> visit = [&](Node* node) {
    if (node->is_leaf) {
      node->snapshot_offset = order.size();
      order.insert(order.end(), node->points.begin(), node->points.end());
      return;
    }
    for (const auto& child : node->children) visit(child.get());
  };
  if (root_ != nullptr) visit(root_.get());
  view_ = std::make_shared<const kernels::DatasetView>(
      kernels::DatasetView::BuildInOrder(*dataset_, order, base_rows_));
}

Result<XTree> XTree::BuildByInsertion(const data::Dataset& dataset,
                                      knn::MetricKind metric,
                                      XTreeConfig config) {
  XTree tree(dataset, metric, config);
  for (data::PointId id = 0; id < dataset.size(); ++id) {
    if (!dataset.IsLive(id)) continue;  // tombstones fold out at build
    HOS_RETURN_IF_ERROR(tree.Insert(id));
  }
  tree.RefreshKernelView();
  return tree;
}

// ---------------------------------------------------------------------------
// Bulk load (Sort-Tile-Recursive)
// ---------------------------------------------------------------------------

namespace {

// Recursively tiles `ids` into chunks of at most `cap` items, sorting by
// successive dimensions (STR). Appends chunks to `out`. `coord(id, dim)` is
// the sort key; a template parameter rather than a std::function so the
// comparator inlines (a bulk load sorts tens of millions of times).
template <typename Coord>
void StrTile(std::vector<size_t> ids, int dim, int num_dims, size_t cap,
             const Coord& coord, std::vector<std::vector<size_t>>* out) {
  if (ids.size() <= cap) {
    if (!ids.empty()) out->push_back(std::move(ids));
    return;
  }
  const size_t num_chunks = (ids.size() + cap - 1) / cap;
  const int remaining = num_dims - dim;
  size_t slabs;
  if (remaining <= 1) {
    slabs = num_chunks;
  } else {
    slabs = static_cast<size_t>(
        std::ceil(std::pow(static_cast<double>(num_chunks),
                           1.0 / static_cast<double>(remaining))));
    slabs = std::max<size_t>(2, slabs);
  }
  std::sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
    return coord(a, dim) < coord(b, dim);
  });
  const size_t slab_size = (ids.size() + slabs - 1) / slabs;
  for (size_t start = 0; start < ids.size(); start += slab_size) {
    size_t end = std::min(start + slab_size, ids.size());
    std::vector<size_t> slab(ids.begin() + start, ids.begin() + end);
    if (remaining <= 1) {
      // Final dimension: each slab is already a chunk of size <= cap.
      out->push_back(std::move(slab));
    } else {
      StrTile(std::move(slab), dim + 1, num_dims, cap, coord, out);
    }
  }
}

}  // namespace

Result<XTree> XTree::BulkLoad(
    const data::Dataset& dataset, knn::MetricKind metric, XTreeConfig config,
    std::shared_ptr<const kernels::DatasetView> /*view*/) {
  XTree tree(dataset, metric, config);
  const size_t n = dataset.size();
  const int dims = dataset.num_dims();
  const size_t cap = std::max<size_t>(
      2, static_cast<size_t>(config.max_entries * config.bulk_fill));

  // 1. Tile the *live* points into leaves; tombstoned rows fold out here.
  std::vector<size_t> ids;
  ids.reserve(dataset.live_size());
  for (size_t i = 0; i < n; ++i) {
    if (dataset.IsLive(static_cast<data::PointId>(i))) ids.push_back(i);
  }
  tree.num_points_ = ids.size();
  if (ids.empty()) {
    tree.RefreshKernelView();
    return tree;
  }
  std::vector<std::vector<size_t>> tiles;
  StrTile(std::move(ids), 0, dims, cap,
          [&](size_t id, int dim) {
            return dataset.At(static_cast<data::PointId>(id), dim);
          },
          &tiles);

  std::vector<std::unique_ptr<Node>> level;
  level.reserve(tiles.size());
  for (auto& tile : tiles) {
    auto leaf = std::make_unique<Node>(/*leaf=*/true, dims);
    leaf->points.reserve(tile.size());
    for (size_t id : tile) {
      leaf->points.push_back(static_cast<data::PointId>(id));
    }
    tree.RecomputeMbr(leaf.get());
    level.push_back(std::move(leaf));
  }

  // 2. Build directory levels bottom-up until a single root remains.
  while (level.size() > 1) {
    std::vector<size_t> node_ids(level.size());
    for (size_t i = 0; i < level.size(); ++i) node_ids[i] = i;
    std::vector<std::vector<size_t>> groups;
    StrTile(std::move(node_ids), 0, dims, cap,
            [&](size_t id, int dim) {
              const Mbr& box = level[id]->mbr;
              return 0.5 * (box.min(dim) + box.max(dim));
            },
            &groups);
    std::vector<std::unique_ptr<Node>> parents;
    parents.reserve(groups.size());
    for (auto& group : groups) {
      auto parent = std::make_unique<Node>(/*leaf=*/false, dims);
      parent->children.reserve(group.size());
      for (size_t id : group) parent->children.push_back(std::move(level[id]));
      tree.RecomputeMbr(parent.get());
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
  }
  tree.root_ = std::move(level.front());
  tree.RefreshKernelView();
  return tree;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

const kernels::DatasetView* XTree::kernel_view() const {
  return knn::GateKernelView(view_, *dataset_, base_rows_,
                             &stale_fallbacks_, "XTree");
}

std::vector<knn::Neighbor> XTree::Knn(const knn::KnnQuery& query) const {
  const knn::BatchPointQuery point{query.point, query.exclude};
  return std::move(KnnBatch({&point, 1}, query.subspace, query.k).front());
}

std::vector<std::vector<knn::Neighbor>> XTree::KnnBatch(
    std::span<const knn::BatchPointQuery> points, const Subspace& subspace,
    int k) const {
  const size_t nb = points.size();
  std::vector<std::vector<knn::Neighbor>> results(nb);
  if (nb == 0 || k <= 0) return results;
  // Leaves are scanned through the leaf-ordered snapshot when it can serve,
  // else over the dataset rows (the scalar path); an empty tree leaves only
  // the delta merge.
  const kernels::DatasetView* view = nullptr;
  if (root_ != nullptr) {
    view = kernel_view();
    if (view != nullptr) {
      kernel_scans_ += nb;
    } else {
      scalar_scans_ += nb;
    }
  }

  // Tombstoned rows are still in the leaves; the collectors reject them at
  // admission.
  const data::Dataset* live_filter =
      dataset_->num_tombstones() > 0 ? dataset_ : nullptr;
  std::vector<kernels::TopKCollector> collectors;
  collectors.reserve(nb);
  for (size_t q = 0; q < nb; ++q) {
    collectors.emplace_back(static_cast<size_t>(k), live_filter);
  }
  std::vector<kernels::MultiPointQuery> queries(nb);
  for (size_t q = 0; q < nb; ++q) {
    queries[q] = {points[q].point.data(), points[q].exclude, &collectors[q]};
  }

  // Shared best-first traversal with shrinking active sets: each queue
  // entry carries only the queries its parent had not already pruned (and
  // their MBR min-distances), ordered by the carried minimum so the
  // batch's most promising subtree is expanded first and every collector's
  // bound tightens as early as possible. A query q is dropped from a
  // subtree once mindist_q exceeds q's full-collector bound — bounds only
  // tighten and child mindists dominate the parent's, so nothing inside
  // can ever enter q's answer. This keeps the traversal arithmetic
  // proportional to the per-query node sets (plus sharing where they
  // overlap) instead of B min-distances on every node the union touches.
  // Queue entries are PODs pointing into shared member/mindist arenas
  // (append-only for the duration of the traversal), so pushing a node
  // costs no allocation and popping no vector copy.
  struct BatchItem {
    double key;
    const Node* node;
    uint32_t offset;  // segment start in the arenas
    uint32_t count;   // segment length
  };
  struct BatchGreater {
    bool operator()(const BatchItem& a, const BatchItem& b) const {
      return a.key > b.key;
    }
  };
  std::vector<uint32_t> arena_members;
  std::vector<double> arena_mindist;
  arena_members.reserve(nb * 16);
  arena_mindist.reserve(nb * 16);
  std::priority_queue<BatchItem, std::vector<BatchItem>, BatchGreater> heap;
  // Pushes `node` for candidates[i] at min-distance mindist[i * stride].
  const auto push_node = [&](const Node* node, const uint32_t* candidates,
                             size_t num_candidates, const double* mindist,
                             size_t stride) {
    const auto offset = static_cast<uint32_t>(arena_members.size());
    double key = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < num_candidates; ++i) {
      const uint32_t q = candidates[i];
      const double md = mindist[i * stride];
      // Prune at push time too: the bound can only be tighter by the time
      // the node is popped, so this discards exactly what the pop-time
      // check would.
      if (md > collectors[q].bound()) continue;
      arena_members.push_back(q);
      arena_mindist.push_back(md);
      key = std::min(key, md);
    }
    const auto count = static_cast<uint32_t>(arena_members.size()) - offset;
    if (count == 0) return;
    heap.push({key, node, offset, count});
  };
  if (root_ != nullptr) {
    std::vector<uint32_t> all(nb);
    std::vector<double> root_dist(nb);
    for (size_t q = 0; q < nb; ++q) {
      all[q] = static_cast<uint32_t>(q);
      root_dist[q] = root_->mbr.MinDistance(points[q].point, subspace, metric_);
    }
    push_node(root_.get(), all.data(), all.size(), root_dist.data(), 1);
  }

  const std::vector<int> dims = subspace.Dims();
  std::vector<kernels::MultiPointQuery> active;
  std::vector<uint32_t> active_members;
  std::vector<double> child_dist;  // [active member][child]
  while (!heap.empty()) {
    const BatchItem item = heap.top();
    heap.pop();
    active.clear();
    active_members.clear();
    for (size_t i = 0; i < item.count; ++i) {
      const uint32_t q = arena_members[item.offset + i];
      if (arena_mindist[item.offset + i] <= collectors[q].bound()) {
        active.push_back(queries[q]);
        active_members.push_back(q);
      }
    }
    if (active.empty()) continue;
    ++node_access_count_;
    const Node* node = item.node;
    if (node->is_leaf) {
      // Every leaf position counts as examined for each active query, its
      // excluded row included, on both paths.
      if (view != nullptr) {
        distance_count_ += kernels::ScanRangeForTopKMulti(
            *view, active, dims, metric_,
            static_cast<data::PointId>(node->snapshot_offset), node->points);
      } else {
        for (const uint32_t q : active_members) {
          for (const data::PointId id : node->points) {
            if (points[q].exclude == id) continue;
            collectors[q].Offer(
                id, knn::SubspaceDistance(points[q].point, dataset_->Row(id),
                                          subspace, metric_));
          }
        }
        distance_count_ += active_members.size() * node->points.size();
      }
    } else {
      const size_t count = node->children.size();
      child_dist.resize(active_members.size() * count);
      for (size_t i = 0; i < active_members.size(); ++i) {
        kernels::BoxMinDistances(node->child_lo.data(), node->child_hi.data(),
                                 count, points[active_members[i]].point, dims,
                                 metric_, &child_dist[i * count]);
      }
      for (size_t c = 0; c < count; ++c) {
        push_node(node->children[c].get(), active_members.data(),
                  active_members.size(), &child_dist[c], count);
      }
    }
  }

  const auto live = static_cast<data::PointId>(dataset_->size());
  if (live > base_rows_) delta_merges_ += nb;
  for (size_t q = 0; q < nb; ++q) {
    distance_count_ += knn::DeltaScanTopK(
        *dataset_, metric_, points[q].point, subspace,
        static_cast<data::PointId>(base_rows_), live, points[q].exclude,
        &collectors[q]);
    results[q] = collectors[q].TakeSorted();
  }
  return results;
}

std::vector<knn::Neighbor> XTree::RangeSearch(std::span<const double> point,
                                              const Subspace& subspace,
                                              double radius) const {
  std::vector<knn::Neighbor> out;
  if (root_ == nullptr) {
    distance_count_ += knn::DeltaScanRange(
        *dataset_, metric_, point, subspace,
        static_cast<data::PointId>(base_rows_),
        static_cast<data::PointId>(dataset_->size()), radius, &out);
    std::sort(out.begin(), out.end(),
              [](const knn::Neighbor& a, const knn::Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.id < b.id;
              });
    return out;
  }

  const kernels::DatasetView* view = kernel_view();
  if (view != nullptr) {
    ++kernel_scans_;
  } else {
    ++scalar_scans_;
  }
  if (dataset_->size() > base_rows_) ++delta_merges_;
  const bool filter_dead = dataset_->num_tombstones() > 0;
  const std::vector<int> dims = subspace.Dims();
  std::vector<double> leaf_dist;
  // Children's min-distances, one segment per directory level on the
  // recursion path (indexed, not pointed into: deeper levels may grow it).
  std::vector<double> child_dist;
  std::function<void(const Node*)> visit = [&](const Node* node) {
    ++node_access_count_;
    if (node->is_leaf) {
      if (view != nullptr) {
        leaf_dist.resize(node->points.size());
        kernels::BatchedSubspaceDistanceRange(
            *view, point, dims, metric_,
            static_cast<data::PointId>(node->snapshot_offset),
            node->points.size(), radius, leaf_dist);
        distance_count_ += node->points.size();
        for (size_t j = 0; j < node->points.size(); ++j) {
          if (leaf_dist[j] <= radius) {
            if (filter_dead && !dataset_->IsLive(node->points[j])) continue;
            out.push_back({node->points[j], leaf_dist[j]});
          }
        }
        return;
      }
      // Every leaf position counts, tombstones included, as on the kernel
      // path above.
      distance_count_ += node->points.size();
      for (data::PointId id : node->points) {
        if (filter_dead && !dataset_->IsLive(id)) continue;
        double dist = knn::SubspaceDistance(point, dataset_->Row(id),
                                            subspace, metric_);
        if (dist <= radius) out.push_back({id, dist});
      }
    } else {
      const size_t count = node->children.size();
      const size_t base = child_dist.size();
      child_dist.resize(base + count);
      kernels::BoxMinDistances(node->child_lo.data(), node->child_hi.data(),
                               count, point, dims, metric_, &child_dist[base]);
      for (size_t c = 0; c < count; ++c) {
        if (child_dist[base + c] <= radius) visit(node->children[c].get());
      }
      child_dist.resize(base);
    }
  };
  if (root_->mbr.MinDistance(point, subspace, metric_) <= radius) {
    visit(root_.get());
  }
  distance_count_ += knn::DeltaScanRange(
      *dataset_, metric_, point, subspace,
      static_cast<data::PointId>(base_rows_),
      static_cast<data::PointId>(dataset_->size()), radius, &out);
  std::sort(out.begin(), out.end(),
            [](const knn::Neighbor& a, const knn::Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  return out;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

knn::KnnBackendStats XTree::backend_stats() const {
  knn::KnnBackendStats stats;
  stats.backend = "xtree";
  stats.distance_computations = distance_count_;
  stats.node_accesses = node_access_count_;
  stats.kernel_scans = kernel_scans_;
  stats.scalar_scans = scalar_scans_;
  stats.delta_merges = delta_merges_;
  stats.stale_fallbacks = stale_fallbacks_;
  return stats;
}

XTreeStats XTree::ComputeStats() const {
  XTreeStats stats;
  if (root_ == nullptr) return stats;
  std::function<void(const Node*, int)> visit = [&](const Node* node,
                                                    int depth) {
    stats.height = std::max(stats.height, depth);
    if (node->is_leaf) {
      ++stats.num_leaves;
      stats.num_points += node->points.size();
    } else {
      ++stats.num_directory_nodes;
      if (node->supernode_factor > 1) {
        ++stats.num_supernodes;
        stats.largest_supernode_factor = std::max(
            stats.largest_supernode_factor, node->supernode_factor);
      }
      for (const auto& child : node->children) visit(child.get(), depth + 1);
    }
  };
  visit(root_.get(), 1);
  return stats;
}

Status XTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return num_points_ == 0
               ? Status::OK()
               : Status::Internal("null root but num_points > 0");
  }
  size_t points_seen = 0;
  int leaf_depth = -1;
  std::function<Status(const Node*, int, bool)> visit =
      [&](const Node* node, int depth, bool is_root) -> Status {
    if (node->NumEntries() == 0) {
      return Status::Internal("empty node at depth " + std::to_string(depth));
    }
    if (static_cast<int>(node->NumEntries()) > Capacity(*node)) {
      return Status::Internal("node exceeds capacity");
    }
    if (!is_root &&
        static_cast<int>(node->NumEntries()) < 2 && !node->is_leaf) {
      return Status::Internal("directory node with < 2 entries");
    }
    if (node->is_leaf) {
      if (leaf_depth == -1) leaf_depth = depth;
      if (depth != leaf_depth) {
        return Status::Internal("non-uniform leaf depth");
      }
      points_seen += node->points.size();
      Mbr cover(dataset_->num_dims());
      for (data::PointId id : node->points) {
        if (id >= dataset_->size()) {
          return Status::Internal("leaf references invalid point id");
        }
        if (!node->mbr.ContainsPoint(dataset_->Row(id))) {
          return Status::Internal("leaf MBR does not contain its point");
        }
        cover.Expand(dataset_->Row(id));
      }
      if (!cover.ContainsMbr(node->mbr) || !node->mbr.ContainsMbr(cover)) {
        return Status::Internal("leaf MBR is not tight");
      }
    } else {
      Mbr cover(dataset_->num_dims());
      const size_t count = node->children.size();
      if (node->child_lo.size() != count * dataset_->num_dims() ||
          node->child_hi.size() != node->child_lo.size()) {
        return Status::Internal("flat child boxes out of step with children");
      }
      for (size_t c = 0; c < count; ++c) {
        const Node* child = node->children[c].get();
        for (int dim = 0; dim < dataset_->num_dims(); ++dim) {
          const size_t at = static_cast<size_t>(dim) * count + c;
          if (node->child_lo[at] != child->mbr.min(dim) ||
              node->child_hi[at] != child->mbr.max(dim)) {
            return Status::Internal("flat child box differs from child MBR");
          }
        }
      }
      for (const auto& child : node->children) {
        if (!node->mbr.ContainsMbr(child->mbr)) {
          return Status::Internal("parent MBR does not contain child MBR");
        }
        cover.Expand(child->mbr);
        HOS_RETURN_IF_ERROR(visit(child.get(), depth + 1, false));
      }
      if (!cover.ContainsMbr(node->mbr) || !node->mbr.ContainsMbr(cover)) {
        return Status::Internal("directory MBR is not tight");
      }
      if (node->supernode_factor > config_.max_supernode_factor) {
        return Status::Internal("supernode factor exceeds configured cap");
      }
    }
    return Status::OK();
  };
  HOS_RETURN_IF_ERROR(visit(root_.get(), 1, true));
  if (points_seen != num_points_) {
    return Status::Internal(
        "tree holds " + std::to_string(points_seen) + " points, expected " +
        std::to_string(num_points_));
  }
  return Status::OK();
}

}  // namespace hos::index
