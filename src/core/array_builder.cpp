#include "core/array_builder.hpp"

#include <stdexcept>
#include <string>

#include "blocks/adder.hpp"
#include "blocks/diode_select.hpp"
#include "blocks/subtractor.hpp"

namespace mda::core {
namespace {

using blocks::BlockFactory;
using spice::NodeId;

std::string cell_name(const char* prefix, std::size_t i, std::size_t j) {
  return std::string(prefix) + "_" + std::to_string(i) + "_" +
         std::to_string(j);
}

/// Create the input source array (one VSource per element, initially 0 V).
void add_input_sources(ArrayCircuit& a, std::size_t m, std::size_t n) {
  a.p_sources.reserve(m);
  a.q_sources.reserve(n);
  for (std::size_t i = 0; i < m; ++i) {
    const std::string name = "in/p" + std::to_string(i);
    auto& src = a.net->add<spice::VSource>(a.net->node(name), spice::kGround,
                                           spice::Waveform::dc(0.0));
    src.set_label(name);
    a.p_sources.push_back(&src);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::string name = "in/q" + std::to_string(j);
    auto& src = a.net->add<spice::VSource>(a.net->node(name), spice::kGround,
                                           spice::Waveform::dc(0.0));
    src.set_label(name);
    a.q_sources.push_back(&src);
  }
}

NodeId input_p(const ArrayCircuit& a, std::size_t i) {
  return a.net->find_node("in/p" + std::to_string(i));
}
NodeId input_q(const ArrayCircuit& a, std::size_t j) {
  return a.net->find_node("in/q" + std::to_string(j));
}

double cell_weight(const DistanceSpec& spec, std::size_t i, std::size_t j,
                   std::size_t n) {
  return spec.pair_weights ? (*spec.pair_weights)[i * n + j] : 1.0;
}

void build_dtw_array(ArrayCircuit& a, const AcceleratorConfig& config,
                     const DistanceSpec& spec) {
  BlockFactory& f = *a.factory;
  const std::size_t m = a.m, n = a.n;
  // Boundary sources: D(0,0) = 0 (ground); all other borders = v_max ("inf").
  const NodeId v_inf = f.bias(config.v_max, "bias/v_inf");
  a.pe_out.assign(m * n, spice::kGround);
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      dist::DistanceParams band_check;
      band_check.band = spec.band;
      if (!band_check.in_band(i, j, m, n)) continue;  // Sakoe-Chiba tile-out
      MatrixPeInputs in;
      in.p = input_p(a, i - 1);
      in.q = input_q(a, j - 1);
      auto neighbour = [&](std::size_t ii, std::size_t jj) -> NodeId {
        if (ii == 0 && jj == 0) return spice::kGround;  // D(0,0) = 0
        if (ii == 0 || jj == 0) return v_inf;
        const NodeId node = a.pe_out[(ii - 1) * n + (jj - 1)];
        return node == spice::kGround ? v_inf : node;  // out-of-band = inf
      };
      in.left = neighbour(i, j - 1);
      in.up = neighbour(i - 1, j);
      in.diag = neighbour(i - 1, j - 1);
      PeBuild pe = build_dtw_pe(f, in, cell_weight(spec, i - 1, j - 1, n),
                                cell_name("pe", i, j));
      a.pe_out[(i - 1) * n + (j - 1)] = pe.out;
    }
  }
  a.out = a.pe_out[(m - 1) * n + (n - 1)];
  if (a.out == spice::kGround) {
    throw std::logic_error("DTW array: output cell outside the band");
  }
}

void build_lcs_array(ArrayCircuit& a, const AcceleratorConfig& config,
                     const DistanceSpec& spec) {
  BlockFactory& f = *a.factory;
  const std::size_t m = a.m, n = a.n;
  PeBias bias;
  bias.vthre = f.bias(spec.threshold * config.voltage_resolution, "bias/vthre");
  bias.vstep = f.bias(config.vstep, "bias/vstep");
  a.pe_out.assign(m * n, spice::kGround);
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      MatrixPeInputs in;
      in.p = input_p(a, i - 1);
      in.q = input_q(a, j - 1);
      // L borders are 0 -> ground.
      in.left = j >= 2 ? a.pe_out[(i - 1) * n + (j - 2)] : spice::kGround;
      in.up = i >= 2 ? a.pe_out[(i - 2) * n + (j - 1)] : spice::kGround;
      in.diag = (i >= 2 && j >= 2) ? a.pe_out[(i - 2) * n + (j - 2)]
                                   : spice::kGround;
      PeBuild pe = build_lcs_pe(f, in, bias, cell_weight(spec, i - 1, j - 1, n),
                                cell_name("pe", i, j));
      a.pe_out[(i - 1) * n + (j - 1)] = pe.out;
    }
  }
  a.out = a.pe_out[(m - 1) * n + (n - 1)];
}

void build_edit_array(ArrayCircuit& a, const AcceleratorConfig& config,
                      const DistanceSpec& spec) {
  BlockFactory& f = *a.factory;
  const std::size_t m = a.m, n = a.n;
  PeBias bias;
  bias.vthre = f.bias(spec.threshold * config.voltage_resolution, "bias/vthre");
  bias.vstep = f.bias(config.vstep, "bias/vstep");
  // Border sources E(i,0) = i*Vstep, E(0,j) = j*Vstep.
  std::vector<NodeId> row_border(m + 1, spice::kGround);
  std::vector<NodeId> col_border(n + 1, spice::kGround);
  for (std::size_t i = 1; i <= m; ++i) {
    row_border[i] = f.bias(static_cast<double>(i) * config.vstep,
                           "bias/e_row" + std::to_string(i));
  }
  for (std::size_t j = 1; j <= n; ++j) {
    col_border[j] = f.bias(static_cast<double>(j) * config.vstep,
                           "bias/e_col" + std::to_string(j));
  }
  a.pe_out.assign(m * n, spice::kGround);
  auto cell = [&](std::size_t ii, std::size_t jj) -> NodeId {
    if (ii == 0) return col_border[jj];
    if (jj == 0) return row_border[ii];
    return a.pe_out[(ii - 1) * n + (jj - 1)];
  };
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      MatrixPeInputs in;
      in.p = input_p(a, i - 1);
      in.q = input_q(a, j - 1);
      in.left = cell(i, j - 1);
      in.up = cell(i - 1, j);
      in.diag = cell(i - 1, j - 1);
      PeBuild pe = build_edit_pe(f, in, bias, cell_weight(spec, i - 1, j - 1, n),
                                 cell_name("pe", i, j));
      a.pe_out[(i - 1) * n + (j - 1)] = pe.out;
    }
  }
  a.out = a.pe_out[(m - 1) * n + (n - 1)];
}

void build_hausdorff_array(ArrayCircuit& a, const AcceleratorConfig& /*config*/,
                           const DistanceSpec& spec) {
  BlockFactory& f = *a.factory;
  const std::size_t m = a.m, n = a.n;
  a.pe_out.assign(m * n, spice::kGround);
  std::vector<NodeId> column_min(n, spice::kGround);
  for (std::size_t j = 1; j <= n; ++j) {
    // Column rail: Hau(m,j) = max_i (Vcc - w*|P_i - Q_j|) as one diode OR.
    std::vector<NodeId> comp_outs;
    comp_outs.reserve(m);
    for (std::size_t i = 1; i <= m; ++i) {
      PeBuild pe = build_hausdorff_pe(f, input_p(a, i - 1), input_q(a, j - 1),
                                      cell_weight(spec, i - 1, j - 1, n),
                                      cell_name("pe", i, j));
      a.pe_out[(i - 1) * n + (j - 1)] = pe.out;
      comp_outs.push_back(pe.out);
    }
    blocks::DiodeMaxHandles col_max = blocks::make_diode_max(
        f, comp_outs, "colmax_" + std::to_string(j));
    // Converter: Vcc - Hau(m,j) = min_i w*|P_i - Q_j| (Fig. 2(d2)).
    blocks::DiffAmpHandles conv = blocks::make_diff_amp(
        f, f.rails().vcc, col_max.out, 1.0, "conv_" + std::to_string(j));
    column_min[j - 1] = conv.out;
  }
  // Final maximum over the column minima.
  blocks::DiodeMaxHandles mx = blocks::make_diode_max(f, column_min, "haud_max");
  a.out = mx.out;
}

void build_row_array(ArrayCircuit& a, const AcceleratorConfig& config,
                     const DistanceSpec& spec) {
  BlockFactory& f = *a.factory;
  const std::size_t n = a.n;
  a.pe_out.assign(n, spice::kGround);
  PeBias bias;
  if (spec.kind == dist::DistanceKind::Hamming) {
    bias.vthre = f.bias(spec.threshold * config.voltage_resolution, "bias/vthre");
    bias.vstep = f.bias(config.vstep, "bias/vstep");
  }
  std::vector<NodeId> pe_nodes(n);
  std::vector<double> weights(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (spec.elem_weights) weights[i] = (*spec.elem_weights)[i];
    PeBuild pe;
    if (spec.kind == dist::DistanceKind::Hamming) {
      pe = build_hamming_pe(f, input_p(a, i), input_q(a, i), bias,
                            cell_name("pe", 1, i + 1));
    } else {
      pe = build_manhattan_pe(f, input_p(a, i), input_q(a, i),
                              cell_name("pe", 1, i + 1));
    }
    a.pe_out[i] = pe.out;
    pe_nodes[i] = pe.out;
  }
  // Row adder: Vout = sum of weighted PE outputs (weights = M0/Mk).
  blocks::RowAdderHandles adder =
      blocks::make_row_adder(f, pe_nodes, weights, "row_adder");
  a.out = adder.out;
}

}  // namespace

void ArrayCircuit::set_step_inputs(const std::vector<double>& p_volts,
                                   const std::vector<double>& q_volts,
                                   double t_edge) {
  if (p_volts.size() != p_sources.size() ||
      q_volts.size() != q_sources.size()) {
    throw std::invalid_argument("set_step_inputs: size mismatch");
  }
  for (std::size_t i = 0; i < p_sources.size(); ++i) {
    p_sources[i]->set_waveform(spice::Waveform::step(0.0, p_volts[i], t_edge));
  }
  for (std::size_t j = 0; j < q_sources.size(); ++j) {
    q_sources[j]->set_waveform(spice::Waveform::step(0.0, q_volts[j], t_edge));
  }
}

void ArrayCircuit::set_dc_inputs(const std::vector<double>& p_volts,
                                 const std::vector<double>& q_volts) {
  if (p_volts.size() != p_sources.size() ||
      q_volts.size() != q_sources.size()) {
    throw std::invalid_argument("set_dc_inputs: size mismatch");
  }
  for (std::size_t i = 0; i < p_sources.size(); ++i) {
    p_sources[i]->set_waveform(spice::Waveform::dc(p_volts[i]));
  }
  for (std::size_t j = 0; j < q_sources.size(); ++j) {
    q_sources[j]->set_waveform(spice::Waveform::dc(q_volts[j]));
  }
}

ArrayCircuit build_array(const AcceleratorConfig& config,
                         const DistanceSpec& spec, std::size_t m,
                         std::size_t n) {
  if (m == 0 || n == 0) {
    throw std::invalid_argument("build_array: empty dimensions");
  }
  if (!dist::is_matrix_structure(spec.kind) && m != n) {
    throw std::invalid_argument("row-structure functions need m == n");
  }
  ArrayCircuit a;
  a.m = m;
  a.n = n;
  a.net = std::make_unique<spice::Netlist>();
  a.factory = std::make_unique<blocks::BlockFactory>(*a.net, config.env);
  add_input_sources(a, m, n);
  switch (spec.kind) {
    case dist::DistanceKind::Dtw:
      build_dtw_array(a, config, spec);
      break;
    case dist::DistanceKind::Lcs:
      build_lcs_array(a, config, spec);
      break;
    case dist::DistanceKind::Edit:
      build_edit_array(a, config, spec);
      break;
    case dist::DistanceKind::Hausdorff:
      build_hausdorff_array(a, config, spec);
      break;
    case dist::DistanceKind::Hamming:
    case dist::DistanceKind::Manhattan:
      build_row_array(a, config, spec);
      break;
  }
  a.factory->finalize_parasitics();
  return a;
}

SimArray build_sim_array(const AcceleratorConfig& config,
                         const DistanceSpec& spec, const EncodedInputs& enc) {
  AcceleratorConfig cfg = config;
  cfg.vstep = enc.vstep_eff;
  SimArray s{build_array(cfg, spec, enc.p_volts.size(), enc.q_volts.size()),
             nullptr};
  s.sim = std::make_unique<spice::TransientSimulator>(*s.array.net);
  s.sim->probe(s.array.out, "out");
  return s;
}

power::PeInventory measure_pe_inventory(dist::DistanceKind kind) {
  const ConfigEntry entry = measure_config_entry(kind);
  power::PeInventory inv;
  // Comparators draw amplifier-class power, so they count with the op-amps.
  inv.opamps = entry.opamps_per_pe + entry.comparators_per_pe;
  // The paper's power accounting assumes two memristor source-to-ground
  // paths per op-amp network; each path contains two devices on average.
  inv.memristor_paths = entry.memristors_per_pe / 2;
  return inv;
}

ConfigEntry measure_config_entry(dist::DistanceKind kind) {
  spice::Netlist net;
  blocks::AnalogEnv env;
  blocks::BlockFactory f(net, env);
  // Dummy nodes for inputs / neighbours.
  MatrixPeInputs in;
  in.p = net.node("x/p");
  in.q = net.node("x/q");
  in.left = net.node("x/l");
  in.up = net.node("x/u");
  in.diag = net.node("x/d");
  PeBias bias;
  bias.vthre = net.node("x/vthre");
  bias.vstep = net.node("x/vstep");
  switch (kind) {
    case dist::DistanceKind::Dtw:
      build_dtw_pe(f, in, 1.0, "pe");
      break;
    case dist::DistanceKind::Lcs:
      build_lcs_pe(f, in, bias, 1.0, "pe");
      break;
    case dist::DistanceKind::Edit:
      build_edit_pe(f, in, bias, 1.0, "pe");
      break;
    case dist::DistanceKind::Hausdorff:
      build_hausdorff_pe(f, in.p, in.q, 1.0, "pe");
      break;
    case dist::DistanceKind::Hamming:
      build_hamming_pe(f, in.p, in.q, bias, "pe");
      break;
    case dist::DistanceKind::Manhattan:
      build_manhattan_pe(f, in.p, in.q, "pe");
      break;
  }
  ConfigEntry e;
  e.kind = kind;
  e.matrix_structure = dist::is_matrix_structure(kind);
  e.opamps_per_pe = f.opamps().size();
  e.memristors_per_pe = f.memristors().size();
  e.tgates_per_pe = f.num_tgates();
  e.comparators_per_pe = f.num_comparators();
  e.diodes_per_pe = f.num_diodes();
  e.notes = e.matrix_structure ? "matrix structure" : "row structure";
  return e;
}

}  // namespace mda::core
