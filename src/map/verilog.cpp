#include "map/verilog.h"

#include <cctype>
#include <fstream>
#include <set>
#include <ostream>

#include "logic/sop.h"
#include "support/error.h"

namespace fpgadbg::map {

namespace {

/// Verilog escaped identifier (handles '$', '.', etc. in netlist names).
std::string vname(const std::string& name) {
  bool plain = !name.empty() && (std::isalpha(static_cast<unsigned char>(name[0])) ||
                                 name[0] == '_');
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      plain = false;
      break;
    }
  }
  if (plain) return name;
  return "\\" + name + " ";  // escaped identifier needs a trailing space
}

/// Internal wire name of a cell; cells whose names collide with an output
/// port are suffixed so ports and wires stay distinct identifiers.
class Namer {
 public:
  explicit Namer(const MappedNetlist& mn) : mn_(mn) {
    for (const std::string& out : mn.output_names()) outputs_.insert(out);
  }
  std::string wire(CellId id) const {
    const MCell& cell = mn_.cell(id);
    const bool is_port = cell.kind == MKind::kInput ||
                         cell.kind == MKind::kParam;
    if (!is_port && outputs_.count(cell.name)) {
      return vname(cell.name + "$int");
    }
    return vname(cell.name);
  }

 private:
  const MappedNetlist& mn_;
  std::set<std::string> outputs_;
};

/// SOP expression of a cell over its (data ++ param) input names.
std::string sop_expr(const Namer& names, const MCell& cell) {
  std::vector<std::string> inputs;
  for (CellId in : cell.data_inputs) inputs.push_back(names.wire(in));
  for (CellId in : cell.param_inputs) inputs.push_back(names.wire(in));

  if (cell.function.is_const0()) return "1'b0";
  if (cell.function.is_const1()) return "1'b1";
  const logic::SopCover cover = logic::tt_to_isop(cell.function);
  std::string expr;
  for (std::size_t c = 0; c < cover.cubes.size(); ++c) {
    if (c > 0) expr += " | ";
    std::string term;
    for (std::size_t v = 0; v < inputs.size(); ++v) {
      const char lit = cover.cubes[c].literals[v];
      if (lit == '-') continue;
      if (!term.empty()) term += " & ";
      if (lit == '0') term += "~";
      term += inputs[v];
    }
    expr += term.empty() ? "1'b1" : ("(" + term + ")");
  }
  return expr;
}

}  // namespace

void write_verilog(const MappedNetlist& mn, std::ostream& out) {
  const Namer names(mn);
  out << "// generated by fpgadbg from mapped netlist '" << mn.model_name()
      << "'\n";
  out << "module " << vname(mn.model_name()) << " (\n  input wire clk";
  for (CellId id : mn.inputs()) {
    out << ",\n  input wire " << vname(mn.cell(id).name);
  }
  for (CellId id : mn.params()) {
    out << ",\n  input wire " << vname(mn.cell(id).name)
        << " /* debug parameter */";
  }
  for (std::size_t i = 0; i < mn.outputs().size(); ++i) {
    out << ",\n  output wire " << vname(mn.output_names()[i]);
  }
  out << "\n);\n\n";

  // Latch state registers.
  for (const MLatch& latch : mn.latches()) {
    out << "  reg " << names.wire(latch.output) << " = 1'b"
        << (latch.init_value == 1 ? '1' : '0') << ";\n";
  }

  // Cells in topological order.
  for (CellId id : mn.topo_order()) {
    const MCell& cell = mn.cell(id);
    const char* kind = cell.kind == MKind::kLut    ? "LUT"
                       : cell.kind == MKind::kTlut ? "TLUT"
                                                   : "TCON";
    out << "  wire " << names.wire(id) << ";  // " << kind << '\n';
    out << "  assign " << names.wire(id) << " = "
        << sop_expr(names, cell) << ";\n";
  }

  // Constant sources.
  for (CellId id = 0; id < mn.num_cells(); ++id) {
    if (mn.cell(id).kind == MKind::kConst0) {
      out << "  wire " << names.wire(id) << " = 1'b0;\n";
    }
  }

  if (!mn.latches().empty()) {
    out << "\n  always @(posedge clk) begin\n";
    for (const MLatch& latch : mn.latches()) {
      out << "    " << names.wire(latch.output) << " <= "
          << names.wire(latch.input) << ";\n";
    }
    out << "  end\n";
  }

  out << '\n';
  for (std::size_t i = 0; i < mn.outputs().size(); ++i) {
    out << "  assign " << vname(mn.output_names()[i]) << " = "
        << names.wire(mn.outputs()[i]) << ";\n";
  }
  out << "endmodule\n";
}

void write_verilog_file(const MappedNetlist& mn, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open Verilog output file: " + path);
  write_verilog(mn, out);
}

}  // namespace fpgadbg::map
