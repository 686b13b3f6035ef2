// Machine-readable screening reports (JSON) — campaign results for
// downstream pipelines — plus the single-line JSONL hit record the
// batch-screening service streams and re-reads on resume.
#pragma once

#include <string>
#include <vector>

#include "util/json.h"
#include "vs/screening.h"

namespace metadock::vs {

/// Serializes a ranked hit list: receptor/engine metadata plus one record
/// per ligand (name, index, best energy/spot/pose, modeled cost).
[[nodiscard]] std::string hits_to_json(const std::string& receptor_name,
                                       const std::string& node_name,
                                       const std::vector<LigandHit>& hits);

/// One LigandHit as a single-line JSON object (no trailing newline) — the
/// record format of the batch screener's JSONL stream.  Floating-point
/// fields use the exact-roundtrip form, so hit_from_json recovers the
/// bits: a resumed run ranks file-recovered hits identically to the
/// in-memory originals.
[[nodiscard]] std::string hit_to_json_line(const LigandHit& hit);

/// Inverse of hit_to_json_line.  Throws std::out_of_range / std::logic_error
/// on records missing required fields or with mistyped values.
[[nodiscard]] LigandHit hit_from_json(const util::JsonValue& record);

}  // namespace metadock::vs
