#include "map/mapped_netlist.h"

#include <algorithm>

#include "support/error.h"

namespace fpgadbg::map {

int tcon_source(const logic::TruthTable& f, int nd, std::uint64_t assignment) {
  FPGADBG_ASSERT(nd <= f.num_vars() &&
                     (assignment >> (f.num_vars() - nd)) == 0,
                 "TCON assignment out of range");
  const std::size_t width = std::size_t{1} << nd;  // residual bits
  const std::size_t num_words = nd < 6 ? 1 : width / 64;
  const std::uint64_t tail =
      nd < 6 ? (std::uint64_t{1} << width) - 1 : ~std::uint64_t{0};
  const std::size_t begin = static_cast<std::size_t>(assignment) << nd;
  const std::uint64_t* words = f.words().data() + begin / 64;
  const std::size_t shift = begin % 64;  // nonzero only when nd < 6
  // Candidates still consistent with the residual words read so far:
  // bit 0 = constant 0, bit 1 = constant 1, bit 2 + v = data input v.
  std::uint32_t alive = (std::uint32_t{1} << (nd + 2)) - 1;
  for (std::size_t j = 0; j < num_words && alive != 0; ++j) {
    const std::uint64_t r = (words[j] >> shift) & tail;
    if (r != 0) alive &= ~1u;
    if (r != tail) alive &= ~2u;
    for (int v = 0; v < nd; ++v) {
      const std::uint64_t var =
          v < 6 ? logic::kVarMask[v] & tail
                : (((j >> (v - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0);
      if (r != var) alive &= ~(4u << v);
    }
  }
  if ((alive & 1u) != 0) return kTconConst0;
  if ((alive & 2u) != 0) return kTconConst1;
  for (int v = 0; v < nd; ++v) {
    if ((alive & (4u << v)) != 0) return v;
  }
  return kTconNotWire;
}

CellId MappedNetlist::add_source(MKind kind, const std::string& name) {
  FPGADBG_REQUIRE(kind == MKind::kConst0 || kind == MKind::kInput ||
                      kind == MKind::kParam,
                  "add_source: not a source kind");
  FPGADBG_REQUIRE(!by_name_.contains(name), "duplicate cell name: " + name);
  MCell c;
  c.kind = kind;
  c.name = name;
  cells_.push_back(std::move(c));
  const CellId id = static_cast<CellId>(cells_.size() - 1);
  by_name_.emplace(name, id);
  if (kind == MKind::kInput) inputs_.push_back(id);
  if (kind == MKind::kParam) params_.push_back(id);
  return id;
}

CellId MappedNetlist::add_latch_source(const std::string& name,
                                       int init_value) {
  FPGADBG_REQUIRE(!by_name_.contains(name), "duplicate cell name: " + name);
  MCell c;
  c.kind = MKind::kLatchOut;
  c.name = name;
  cells_.push_back(std::move(c));
  const CellId id = static_cast<CellId>(cells_.size() - 1);
  by_name_.emplace(name, id);
  latches_.push_back(MLatch{kNullCell, id, init_value});
  return id;
}

void MappedNetlist::set_latch_input(std::size_t index, CellId input) {
  FPGADBG_REQUIRE(index < latches_.size(), "latch index out of range");
  FPGADBG_REQUIRE(input < cells_.size(), "latch input out of range");
  latches_[index].input = input;
}

CellId MappedNetlist::add_cell(MKind kind, const std::string& name,
                               std::vector<CellId> data_inputs,
                               std::vector<CellId> param_inputs,
                               logic::TruthTable function) {
  FPGADBG_REQUIRE(kind == MKind::kLut || kind == MKind::kTlut ||
                      kind == MKind::kTcon,
                  "add_cell: not a logic kind");
  FPGADBG_REQUIRE(!by_name_.contains(name), "duplicate cell name: " + name);
  FPGADBG_REQUIRE(function.num_vars() ==
                      static_cast<int>(data_inputs.size() + param_inputs.size()),
                  "cell function arity mismatch: " + name);
  FPGADBG_REQUIRE(kind != MKind::kLut || param_inputs.empty(),
                  "plain LUT cannot take parameter inputs: " + name);
  for (CellId in : data_inputs) {
    FPGADBG_REQUIRE(in < cells_.size(), "cell input out of range: " + name);
  }
  for (CellId in : param_inputs) {
    FPGADBG_REQUIRE(in < cells_.size() && cells_[in].kind == MKind::kParam,
                    "param input must be a parameter source: " + name);
  }
  MCell c;
  c.kind = kind;
  c.name = name;
  c.data_inputs = std::move(data_inputs);
  c.param_inputs = std::move(param_inputs);
  c.function = std::move(function);
  cells_.push_back(std::move(c));
  const CellId id = static_cast<CellId>(cells_.size() - 1);
  by_name_.emplace(name, id);
  return id;
}

void MappedNetlist::add_output(CellId cell, const std::string& name) {
  FPGADBG_REQUIRE(cell < cells_.size(), "output cell out of range");
  outputs_.push_back(cell);
  output_names_.push_back(name);
}

std::optional<CellId> MappedNetlist::find(const std::string& name) const {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  return std::nullopt;
}

bool MappedNetlist::is_source(CellId id) const {
  const MKind k = cells_.at(id).kind;
  return k == MKind::kConst0 || k == MKind::kInput || k == MKind::kParam ||
         k == MKind::kLatchOut;
}

std::vector<CellId> MappedNetlist::topo_order() const {
  std::vector<int> pending(cells_.size(), 0);
  std::vector<std::vector<CellId>> readers(cells_.size());
  auto each_input = [&](const MCell& c, auto&& fn) {
    for (CellId in : c.data_inputs) fn(in);
    for (CellId in : c.param_inputs) fn(in);
  };
  for (CellId id = 0; id < cells_.size(); ++id) {
    if (is_source(id)) continue;
    each_input(cells_[id], [&](CellId in) {
      if (!is_source(in)) ++pending[id];
      readers[in].push_back(id);
    });
  }
  std::vector<CellId> ready;
  for (CellId id = 0; id < cells_.size(); ++id) {
    if (!is_source(id) && pending[id] == 0) ready.push_back(id);
  }
  std::vector<CellId> order;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const CellId id = ready[head];
    order.push_back(id);
    for (CellId r : readers[id]) {
      if (--pending[r] == 0) ready.push_back(r);
    }
  }
  std::size_t logic_cells = 0;
  for (CellId id = 0; id < cells_.size(); ++id) {
    if (!is_source(id)) ++logic_cells;
  }
  FPGADBG_ASSERT(order.size() == logic_cells,
                 "cycle detected in mapped netlist");
  return order;
}

std::vector<int> MappedNetlist::levels() const {
  std::vector<int> level(cells_.size(), 0);
  for (CellId id : topo_order()) {
    const MCell& c = cells_[id];
    int max_in = 0;
    for (CellId in : c.data_inputs) max_in = std::max(max_in, level[in]);
    // Parameter inputs are quasi-static configuration; they do not sit on
    // the timing path.
    level[id] = max_in + (c.kind == MKind::kTcon ? 0 : 1);
  }
  return level;
}

int MappedNetlist::depth() const {
  const std::vector<int> level = levels();
  int d = 0;
  for (CellId out : outputs_) d = std::max(d, level[out]);
  for (const MLatch& l : latches_) {
    if (l.input != kNullCell) d = std::max(d, level[l.input]);
  }
  return d;
}

std::size_t MappedNetlist::count(MKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [kind](const MCell& c) { return c.kind == kind; }));
}

void MappedNetlist::check() const {
  for (CellId id = 0; id < cells_.size(); ++id) {
    const MCell& c = cells_[id];
    if (is_source(id)) {
      if (!c.data_inputs.empty() || !c.param_inputs.empty()) {
        throw Error("source cell " + c.name + " has inputs");
      }
      continue;
    }
    if (c.function.num_vars() !=
        static_cast<int>(c.data_inputs.size() + c.param_inputs.size())) {
      throw Error("cell " + c.name + ": function arity mismatch");
    }
    if (c.kind == MKind::kTcon) {
      // The defining property: every parameter assignment leaves a plain
      // wire or a constant.
      const int nd = static_cast<int>(c.data_inputs.size());
      for (std::uint64_t pa = 0; pa < (1ULL << c.param_inputs.size()); ++pa) {
        if (tcon_source(c.function, nd, pa) == kTconNotWire) {
          throw Error("cell " + c.name +
                      " is marked TCON but is not a wire under parameters");
        }
      }
    }
  }
  for (const MLatch& l : latches_) {
    if (l.input == kNullCell) throw Error("latch without driver");
  }
  (void)topo_order();
}

}  // namespace fpgadbg::map
