#include "graph/solution.h"

#include <algorithm>

#include "common/check.h"

namespace ids::graph {

SolutionTable::SolutionTable(std::vector<std::string> id_vars,
                             std::vector<std::string> num_vars)
    : id_vars_(std::move(id_vars)),
      num_vars_(std::move(num_vars)),
      id_cols_(id_vars_.size()),
      num_cols_(num_vars_.size()) {}

int SolutionTable::id_var_index(std::string_view name) const {
  for (std::size_t i = 0; i < id_vars_.size(); ++i) {
    if (id_vars_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int SolutionTable::num_var_index(std::string_view name) const {
  for (std::size_t i = 0; i < num_vars_.size(); ++i) {
    if (num_vars_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void SolutionTable::reserve(std::size_t rows) {
  for (auto& c : id_cols_) c.reserve(rows);
  for (auto& c : num_cols_) c.reserve(rows);
}

void SolutionTable::append_row(std::span<const TermId> ids,
                               std::span<const double> nums) {
  IDS_DCHECK(ids.size() == id_cols_.size());
  IDS_DCHECK(nums.size() == num_cols_.size() ||
             (nums.empty() && num_cols_.empty()));
  for (std::size_t i = 0; i < id_cols_.size(); ++i) id_cols_[i].push_back(ids[i]);
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    num_cols_[i].push_back(i < nums.size() ? nums[i] : 0.0);
  }
}

void SolutionTable::append_table(const SolutionTable& other) {
  IDS_CHECK(same_schema(other));
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    id_cols_[i].insert(id_cols_[i].end(), other.id_cols_[i].begin(),
                       other.id_cols_[i].end());
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    num_cols_[i].insert(num_cols_[i].end(), other.num_cols_[i].begin(),
                        other.num_cols_[i].end());
  }
}

void SolutionTable::append_row_from(const SolutionTable& other,
                                    std::size_t row) {
  IDS_DCHECK(same_schema(other));
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    id_cols_[i].push_back(other.id_cols_[i][row]);
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    num_cols_[i].push_back(other.num_cols_[i][row]);
  }
}

namespace {

template <typename T>
void gather_append(std::vector<T>* dst, const std::vector<T>& src,
                   std::span<const RowIndex> rows) {
  const std::size_t base = dst->size();
  dst->resize(base + rows.size());
  T* out = dst->data() + base;
  const T* in = src.data();
  for (std::size_t i = 0; i < rows.size(); ++i) out[i] = in[rows[i]];
}

}  // namespace

void SolutionTable::append_rows_from(const SolutionTable& other,
                                     std::span<const RowIndex> rows) {
  IDS_CHECK(same_schema(other));
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    gather_append(&id_cols_[i], other.id_cols_[i], rows);
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    gather_append(&num_cols_[i], other.num_cols_[i], rows);
  }
}

void SolutionTable::append_row_range_from(const SolutionTable& other,
                                          std::size_t begin, std::size_t end) {
  IDS_CHECK(same_schema(other));
  IDS_CHECK(begin <= end && end <= other.num_rows());
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    const auto& src = other.id_cols_[i];
    id_cols_[i].insert(id_cols_[i].end(),
                       src.begin() + static_cast<std::ptrdiff_t>(begin),
                       src.begin() + static_cast<std::ptrdiff_t>(end));
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    const auto& src = other.num_cols_[i];
    num_cols_[i].insert(num_cols_[i].end(),
                        src.begin() + static_cast<std::ptrdiff_t>(begin),
                        src.begin() + static_cast<std::ptrdiff_t>(end));
  }
}

void SolutionTable::append_prefix_from(const SolutionTable& other,
                                       std::span<const RowIndex> rows) {
  IDS_CHECK(other.id_vars_.size() <= id_vars_.size());
  IDS_CHECK(std::equal(other.id_vars_.begin(), other.id_vars_.end(),
                       id_vars_.begin()));
  IDS_CHECK(num_vars_ == other.num_vars_);
  for (std::size_t i = 0; i < other.id_cols_.size(); ++i) {
    gather_append(&id_cols_[i], other.id_cols_[i], rows);
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    gather_append(&num_cols_[i], other.num_cols_[i], rows);
  }
}

void SolutionTable::partition_by_dst(std::span<const int> dst_of_row,
                                     std::span<RowIndex> counts,
                                     RowPartition* out) {
  IDS_CHECK(dst_of_row.size() < 0xffffffffull)
      << "row index space is 32-bit";
  out->dsts.clear();
  for (int d : dst_of_row) {
    if (counts[static_cast<std::size_t>(d)]++ == 0) out->dsts.push_back(d);
  }
  std::sort(out->dsts.begin(), out->dsts.end());
  // Exclusive prefix sums over the visited destinations; each count slot
  // becomes its destination's write cursor.
  out->offsets.resize(out->dsts.size() + 1);
  RowIndex begin = 0;
  for (std::size_t i = 0; i < out->dsts.size(); ++i) {
    RowIndex& slot = counts[static_cast<std::size_t>(out->dsts[i])];
    out->offsets[i] = begin;
    begin += slot;
    slot = out->offsets[i];
  }
  out->offsets.back() = begin;
  out->rows.resize(dst_of_row.size());
  for (std::size_t r = 0; r < dst_of_row.size(); ++r) {
    out->rows[counts[static_cast<std::size_t>(dst_of_row[r])]++] =
        static_cast<RowIndex>(r);
  }
  for (int d : out->dsts) counts[static_cast<std::size_t>(d)] = 0;
}

int SolutionTable::add_num_var(std::string name) {
  IDS_CHECK(num_var_index(name) < 0) << "duplicate numeric variable " << name;
  num_vars_.push_back(std::move(name));
  num_cols_.emplace_back(num_rows(), 0.0);
  return static_cast<int>(num_vars_.size() - 1);
}

void SolutionTable::filter_rows(const std::vector<char>& keep) {
  IDS_CHECK(keep.size() == num_rows());
  auto compact = [&keep](auto& col) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < col.size(); ++r) {
      if (keep[r]) col[w++] = col[r];
    }
    col.resize(w);
  };
  for (auto& c : id_cols_) compact(c);
  for (auto& c : num_cols_) compact(c);
}

void SolutionTable::truncate(std::size_t n) {
  if (n >= num_rows()) return;
  for (auto& c : id_cols_) c.resize(n);
  for (auto& c : num_cols_) c.resize(n);
}

SolutionTable SolutionTable::take_rows(std::span<const std::size_t> rows) const {
  SolutionTable out = empty_like();
  auto gather = [&rows](auto* dst, const auto& src) {
    dst->resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) (*dst)[i] = src[rows[i]];
  };
  for (std::size_t i = 0; i < id_cols_.size(); ++i) {
    gather(&out.id_cols_[i], id_cols_[i]);
  }
  for (std::size_t i = 0; i < num_cols_.size(); ++i) {
    gather(&out.num_cols_[i], num_cols_[i]);
  }
  return out;
}

SolutionTable SolutionTable::empty_like() const {
  return SolutionTable(id_vars_, num_vars_);
}

void SolutionTable::clear() {
  for (auto& c : id_cols_) c.clear();
  for (auto& c : num_cols_) c.clear();
}

}  // namespace ids::graph
