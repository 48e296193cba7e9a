// Technology-mapped netlist: K-LUTs plus the paper's tuneable primitives.
//
// Cell kinds:
//   kLut  — ordinary K-input LUT; function over data inputs only.
//   kTlut — tuneable LUT: function over data AND parameter inputs; at most K
//           data inputs.  The parameter inputs select which specialization
//           the LUT's SRAM cells hold; they cost no LUT pins at runtime.
//   kTcon — tuneable connection: for EVERY parameter assignment the residual
//           function is a wire (one data input, never inverted: routing
//           cannot invert) or a constant.  Implemented entirely in the FPGA
//           routing fabric, so it occupies no LUT and adds no logic depth.
//
// Area accounting follows the paper's Table I: LUT area = kLut + kTlut cells;
// kTcon cells are routed, not placed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/truth_table.h"

namespace fpgadbg::map {

using CellId = std::uint32_t;
inline constexpr CellId kNullCell = 0xffffffffu;

enum class MKind : std::uint8_t {
  kConst0,
  kInput,
  kParam,
  kLatchOut,
  kLut,
  kTlut,
  kTcon,
};

struct MCell {
  MKind kind = MKind::kLut;
  std::string name;
  /// Data inputs (cells/sources).  Truth-table variables [0, data.size()).
  std::vector<CellId> data_inputs;
  /// Parameter inputs.  Truth-table variables
  /// [data.size(), data.size() + params.size()).
  std::vector<CellId> param_inputs;
  /// Function over data_inputs ++ param_inputs (empty for sources).
  logic::TruthTable function;
};

struct MLatch {
  CellId input = kNullCell;
  CellId output = kNullCell;
  int init_value = 0;
};

/// What a TCON passes under one parameter assignment (see tcon_source()):
/// a data input index >= 0, or one of these.
inline constexpr int kTconConst0 = -1;
inline constexpr int kTconConst1 = -2;
inline constexpr int kTconNotWire = -3;

/// The source `f` passes when its parameter variables spell `assignment`
/// (LSB = the first parameter).  `f` is over `nd` data variables with the
/// parameters above them, so the residual is bits
/// [assignment * 2^nd, (assignment + 1) * 2^nd) of the table, read in place:
/// one word for nd <= 6, up to four for K = 8.  Returns the data input the
/// residual is a plain wire from, kTconConst0/kTconConst1, or kTconNotWire
/// when it is anything else (an inverted input, or logic of several inputs).
int tcon_source(const logic::TruthTable& f, int nd, std::uint64_t assignment);

class MappedNetlist {
 public:
  MappedNetlist() = default;
  explicit MappedNetlist(std::string model) : model_(std::move(model)) {}

  const std::string& model_name() const { return model_; }

  CellId add_source(MKind kind, const std::string& name);
  CellId add_latch_source(const std::string& name, int init_value);
  void set_latch_input(std::size_t index, CellId input);
  CellId add_cell(MKind kind, const std::string& name,
                  std::vector<CellId> data_inputs,
                  std::vector<CellId> param_inputs,
                  logic::TruthTable function);
  void add_output(CellId cell, const std::string& name);

  std::size_t num_cells() const { return cells_.size(); }
  const MCell& cell(CellId id) const { return cells_.at(id); }
  const std::vector<CellId>& inputs() const { return inputs_; }
  const std::vector<CellId>& params() const { return params_; }
  const std::vector<MLatch>& latches() const { return latches_; }
  const std::vector<CellId>& outputs() const { return outputs_; }
  const std::vector<std::string>& output_names() const { return output_names_; }

  std::optional<CellId> find(const std::string& name) const;
  bool is_source(CellId id) const;

  /// Logic cells (kLut/kTlut/kTcon) in topological order.
  std::vector<CellId> topo_order() const;

  /// LUT-levels per cell: sources 0, kLut/kTlut = 1 + max(in), kTcon =
  /// max(in) (routing adds no logic level).
  std::vector<int> levels() const;
  int depth() const;

  std::size_t count(MKind kind) const;
  /// Paper Table I "area": kLut + kTlut.
  std::size_t lut_area() const { return count(MKind::kLut) + count(MKind::kTlut); }

  void check() const;

 private:
  std::string model_ = "top";
  std::vector<MCell> cells_;
  std::vector<CellId> inputs_;
  std::vector<CellId> params_;
  std::vector<MLatch> latches_;
  std::vector<CellId> outputs_;
  std::vector<std::string> output_names_;
  std::unordered_map<std::string, CellId> by_name_;
};

}  // namespace fpgadbg::map
