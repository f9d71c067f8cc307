#pragma once
// Array builders: wire PEs into the two inter-PE structures of Fig. 1 —
// the matrix structure (DTW / LCS / EdD / HauD) and the row structure
// (HamD / MD) — complete with boundary-condition sources, shared bias nodes
// (Vthre / Vstep) and input DAC drivers.

#include <memory>
#include <vector>

#include "blocks/factory.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/pe.hpp"
#include "power/power_model.hpp"
#include "spice/primitives.hpp"
#include "spice/transient.hpp"

namespace mda::core {

/// Common pieces of a generated accelerator array.
struct ArrayCircuit {
  std::unique_ptr<spice::Netlist> net;
  std::unique_ptr<blocks::BlockFactory> factory;
  std::vector<spice::VSource*> p_sources;  ///< One per P element.
  std::vector<spice::VSource*> q_sources;  ///< One per Q element.
  spice::NodeId out = spice::kGround;      ///< Final distance voltage.
  std::vector<spice::NodeId> pe_out;       ///< Per-PE outputs (row-major).
  std::size_t m = 0;                       ///< |P| (rows).
  std::size_t n = 0;                       ///< |Q| (columns).

  /// Drive inputs as ideal steps at t_edge from 0 V (transient analyses) —
  /// "the rising edge of the input".
  void set_step_inputs(const std::vector<double>& p_volts,
                       const std::vector<double>& q_volts,
                       double t_edge = 0.0);

  /// Drive inputs as DC values (operating-point analyses).
  void set_dc_inputs(const std::vector<double>& p_volts,
                     const std::vector<double>& q_volts);
};

/// Build the full analog array for any of the six functions.
/// For matrix-structure functions m = |P|, n = |Q|; for row-structure
/// functions m must equal n.  Weights follow the spec (default 1).
ArrayCircuit build_array(const AcceleratorConfig& config,
                         const DistanceSpec& spec, std::size_t m,
                         std::size_t n);

/// A built array and the simulator over it, with the output node probed as
/// "out".
struct SimArray {
  ArrayCircuit array;
  std::unique_ptr<spice::TransientSimulator> sim;
};

/// Build the array for `enc`'s query shape, with the effective Vstep
/// (EncodedInputs::vstep_eff) baked into the generated bias sources.
SimArray build_sim_array(const AcceleratorConfig& config,
                         const DistanceSpec& spec, const EncodedInputs& enc);

/// Per-PE device inventory for the power model, measured from a freshly
/// generated PE netlist.
power::PeInventory measure_pe_inventory(dist::DistanceKind kind);

/// Full configuration-library entry measured from a generated PE.
ConfigEntry measure_config_entry(dist::DistanceKind kind);

}  // namespace mda::core
