#include "vs/report.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/json.h"

namespace metadock::vs {

using util::JsonWriter;

namespace {

/// A pose component: the stream writes floats exactly, so a value past
/// float's range is corrupt (the narrowing would make it inf).
float pose_component(const util::JsonValue& pose, std::string_view key) {
  const double v = pose.at(key).as_double();
  if (!(std::abs(v) <= static_cast<double>(std::numeric_limits<float>::max()))) {
    throw std::out_of_range("hit record: pose component '" + std::string(key) +
                            "' out of range");
  }
  return static_cast<float>(v);
}

/// An int field (spot or device id); a value past int's range is corrupt.
int int_value(const util::JsonValue& value) {
  const std::int64_t i = value.as_int64();
  if (i < std::numeric_limits<int>::min() || i > std::numeric_limits<int>::max()) {
    throw std::out_of_range("hit record: integer out of range");
  }
  return static_cast<int>(i);
}

void emit_faults(JsonWriter& w, const sched::FaultReport& f) {
  w.key("faults").begin_object();
  w.key("transient_faults").value(f.transient_faults);
  w.key("retries").value(f.retries);
  w.key("devices_lost").value(f.devices_lost);
  w.key("resplits").value(f.resplits);
  w.key("rebalances").value(f.rebalances);
  w.key("cpu_fallback_conformations").value(f.cpu_fallback_conformations);
  // Exact form: the JSONL resume path parses this back and must recover
  // the bits (display consumers are unaffected by the longer digits).
  w.key("time_lost_seconds").value_exact(f.time_lost_seconds);
  w.key("degraded_to_cpu").value(f.degraded_to_cpu);
  w.key("lost_devices").begin_array();
  for (int d : f.lost_devices) w.value(d);
  w.end_array();
  w.end_object();
}

}  // namespace

std::string hits_to_json(const std::string& receptor_name, const std::string& node_name,
                         const std::vector<LigandHit>& hits) {
  JsonWriter w;
  w.begin_object();
  w.key("receptor").value(receptor_name);
  w.key("node").value(node_name);
  w.key("hits").begin_array();
  for (const LigandHit& h : hits) {
    w.begin_object();
    w.key("ligand").value(h.ligand_name);
    w.key("index").value(h.ligand_index);
    w.key("best_energy").value(h.best_score);
    w.key("spot").value(h.best_spot_id);
    w.key("pose").begin_object();
    w.key("x").value(static_cast<double>(h.best_pose.position.x));
    w.key("y").value(static_cast<double>(h.best_pose.position.y));
    w.key("z").value(static_cast<double>(h.best_pose.position.z));
    w.key("qw").value(static_cast<double>(h.best_pose.orientation.w));
    w.key("qx").value(static_cast<double>(h.best_pose.orientation.x));
    w.key("qy").value(static_cast<double>(h.best_pose.orientation.y));
    w.key("qz").value(static_cast<double>(h.best_pose.orientation.z));
    w.end_object();
    w.key("virtual_seconds").value(h.virtual_seconds);
    w.key("energy_joules").value(h.energy_joules);
    if (h.faults.any()) emit_faults(w, h.faults);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string hit_to_json_line(const LigandHit& h) {
  JsonWriter w;
  w.begin_object();
  w.key("index").value(h.ligand_index);
  w.key("ligand").value(h.ligand_name);
  w.key("best_energy").value_exact(h.best_score);
  w.key("spot").value(h.best_spot_id);
  w.key("pose").begin_object();
  w.key("x").value_exact(static_cast<double>(h.best_pose.position.x));
  w.key("y").value_exact(static_cast<double>(h.best_pose.position.y));
  w.key("z").value_exact(static_cast<double>(h.best_pose.position.z));
  w.key("qw").value_exact(static_cast<double>(h.best_pose.orientation.w));
  w.key("qx").value_exact(static_cast<double>(h.best_pose.orientation.x));
  w.key("qy").value_exact(static_cast<double>(h.best_pose.orientation.y));
  w.key("qz").value_exact(static_cast<double>(h.best_pose.orientation.z));
  w.end_object();
  w.key("virtual_seconds").value_exact(h.virtual_seconds);
  w.key("energy_joules").value_exact(h.energy_joules);
  if (h.faults.any()) emit_faults(w, h.faults);
  w.end_object();
  return w.str();
}

LigandHit hit_from_json(const util::JsonValue& record) {
  LigandHit h;
  h.ligand_index = record.at("index").as_uint64();
  h.ligand_name = record.at("ligand").as_string();
  h.best_score = record.at("best_energy").as_double();
  h.best_spot_id = int_value(record.at("spot"));
  const util::JsonValue& pose = record.at("pose");
  h.best_pose.position.x = pose_component(pose, "x");
  h.best_pose.position.y = pose_component(pose, "y");
  h.best_pose.position.z = pose_component(pose, "z");
  h.best_pose.orientation.w = pose_component(pose, "qw");
  h.best_pose.orientation.x = pose_component(pose, "qx");
  h.best_pose.orientation.y = pose_component(pose, "qy");
  h.best_pose.orientation.z = pose_component(pose, "qz");
  h.virtual_seconds = record.at("virtual_seconds").as_double();
  h.energy_joules = record.at("energy_joules").as_double();
  if (const util::JsonValue* f = record.find("faults")) {
    h.faults.transient_faults = f->at("transient_faults").as_uint64();
    h.faults.retries = f->at("retries").as_uint64();
    h.faults.resplits = f->at("resplits").as_uint64();
    h.faults.rebalances = f->at("rebalances").as_uint64();
    h.faults.cpu_fallback_conformations = f->at("cpu_fallback_conformations").as_uint64();
    h.faults.time_lost_seconds = f->at("time_lost_seconds").as_double();
    h.faults.degraded_to_cpu = f->at("degraded_to_cpu").as_bool();
    h.faults.devices_lost = f->at("devices_lost").as_uint64();
    for (const util::JsonValue& d : f->at("lost_devices").as_array()) {
      h.faults.lost_devices.push_back(int_value(d));
    }
  }
  return h;
}

}  // namespace metadock::vs
