#include "core/scenario_config.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/constants.h"

namespace rfp::core {

using rfp::common::Vec2;

namespace {

/// Parse context: every diagnostic names the source and the 1-based line.
struct ParseContext {
  const std::string& sourceName;
  int lineNo = 0;
  std::string line;  ///< trimmed content of the current line

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(sourceName + ":" + std::to_string(lineNo) +
                             ": " + why + ": '" + line + "'");
  }
};

/// Last line that touched a config section, so *semantic* (cross-key)
/// validation failures can point at a concrete source line like every
/// syntactic one does.
struct SectionMark {
  int lineNo = 0;
  std::string line;

  void note(const ParseContext& ctx) {
    lineNo = ctx.lineNo;
    line = ctx.line;
  }
};

/// Routes a semantic validation failure onto the source:line diagnostic
/// path, attributed to the section's last-touched line. Sections left at
/// their (always-valid) defaults have no mark; fall back to naming only
/// the source.
[[noreturn]] void failSemantic(const std::string& sourceName,
                               const SectionMark& mark,
                               const std::string& why) {
  if (mark.lineNo == 0) throw std::runtime_error(sourceName + ": " + why);
  ParseContext ctx{sourceName, mark.lineNo, mark.line};
  ctx.fail(why);
}

struct ParsedScenario {
  std::string roomName = "custom";
  double roomWidth = 10.0;
  double roomHeight = 6.6;
  double wallReflectivity = 0.3;
  std::vector<env::PointScatterer> clutter;
  std::vector<env::Wall> interiorWalls;
  Vec2 radarPos{4.0, -0.8};
  Vec2 radarAxis{1.0, 0.0};
  double radarSampleRateHz = 0.0;  ///< 0 -> keep the office default
  int radarAntennas = 0;           ///< 0 -> keep the office default
  Vec2 panelBase{3.3, 0.35};
  Vec2 panelDirection{1.0, 0.0};
  int panelCount = rfp::common::kPanelAntennas;
  double panelSpacing = rfp::common::kPanelSpacingM;
  double multipathLoss = 0.5;
  fault::FaultConfig faults;
  MultiRadarAttackConfig attack;
  SectionMark faultsMark;
  SectionMark attackMark;
  SectionMark radarMark;
};

std::vector<double> parseNumbers(const std::string& value,
                                 const ParseContext& ctx,
                                 std::size_t expected) {
  std::istringstream in(value);
  std::vector<double> numbers;
  double x = 0.0;
  while (in >> x) numbers.push_back(x);
  if (!in.eof()) ctx.fail("not a number");
  if (numbers.size() != expected) {
    ctx.fail("expected " + std::to_string(expected) + " value(s), got " +
             std::to_string(numbers.size()));
  }
  for (double v : numbers) {
    if (!std::isfinite(v)) ctx.fail("value must be finite");
  }
  return numbers;
}

double parseOne(const std::string& value, const ParseContext& ctx) {
  return parseNumbers(value, ctx, 1)[0];
}

double parseNonNegative(const std::string& value, const ParseContext& ctx) {
  const double v = parseOne(value, ctx);
  if (v < 0.0) ctx.fail("value must be >= 0");
  return v;
}

double parsePositive(const std::string& value, const ParseContext& ctx) {
  const double v = parseOne(value, ctx);
  if (v <= 0.0) ctx.fail("value must be > 0");
  return v;
}

double parseUnit(const std::string& value, const ParseContext& ctx) {
  const double v = parseOne(value, ctx);
  if (v < 0.0 || v > 1.0) ctx.fail("value must be in [0, 1]");
  return v;
}

int parseCount(const std::string& value, const ParseContext& ctx, int lo,
               int hi) {
  const double v = parseOne(value, ctx);
  // Range and integrality on the double: casting an out-of-range value to
  // int first would be undefined behaviour.
  if (!(v >= lo && v <= hi) || v != std::trunc(v)) {
    ctx.fail("value must be an integer in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]");
  }
  return static_cast<int>(v);
}

Vec2 parseDirection(const std::string& value, const ParseContext& ctx) {
  const auto v = parseNumbers(value, ctx, 2);
  const Vec2 d{v[0], v[1]};
  if (d.norm() <= 0.0) ctx.fail("direction must be non-zero");
  return d;
}

}  // namespace

Scenario loadScenario(std::istream& in, const std::string& sourceName) {
  ParsedScenario p;
  ParseContext ctx{sourceName, 0, {}};
  std::string line;
  while (std::getline(in, line)) {
    ++ctx.lineNo;
    // Strip comments and whitespace.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r");
    ctx.line = line.substr(begin, end - begin + 1);
    const std::string& trimmed = ctx.line;

    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) ctx.fail("expected key = value");
    std::string key = trimmed.substr(0, eq);
    std::string value = trimmed.substr(eq + 1);
    const auto keyEnd = key.find_last_not_of(" \t");
    key = key.substr(0, keyEnd == std::string::npos ? 0 : keyEnd + 1);
    const auto valueBegin = value.find_first_not_of(" \t");
    value = valueBegin == std::string::npos ? "" : value.substr(valueBegin);

    if (key == "room.name") {
      p.roomName = value;
    } else if (key == "room.width") {
      p.roomWidth = parsePositive(value, ctx);
    } else if (key == "room.height") {
      p.roomHeight = parsePositive(value, ctx);
    } else if (key == "room.wall_reflectivity") {
      p.wallReflectivity = parseUnit(value, ctx);
    } else if (key == "clutter") {
      const auto v = parseNumbers(value, ctx, 3);
      if (v[2] < 0.0) ctx.fail("clutter amplitude must be >= 0");
      env::PointScatterer s;
      s.position = {v[0], v[1]};
      s.amplitude = v[2];
      s.dynamic = false;
      p.clutter.push_back(s);
    } else if (key == "interior_wall") {
      const auto v = parseNumbers(value, ctx, 5);
      if (v[4] < 0.0 || v[4] > 1.0) {
        ctx.fail("wall reflectivity must be in [0, 1]");
      }
      p.interiorWalls.push_back({{v[0], v[1]}, {v[2], v[3]}, v[4]});
    } else if (key == "radar.x") {
      p.radarPos.x = parseOne(value, ctx);
    } else if (key == "radar.y") {
      p.radarPos.y = parseOne(value, ctx);
    } else if (key == "radar.axis") {
      p.radarAxis = parseDirection(value, ctx);
    } else if (key == "radar.sample_rate") {
      p.radarSampleRateHz = parsePositive(value, ctx);
    } else if (key == "radar.antennas") {
      p.radarAntennas = parseCount(value, ctx, 1, 64);
    } else if (key == "panel.base") {
      const auto v = parseNumbers(value, ctx, 2);
      p.panelBase = {v[0], v[1]};
    } else if (key == "panel.direction") {
      p.panelDirection = parseDirection(value, ctx);
    } else if (key == "panel.count") {
      p.panelCount = parseCount(value, ctx, 1, 1024);
    } else if (key == "panel.spacing") {
      p.panelSpacing = parsePositive(value, ctx);
    } else if (key == "multipath.loss") {
      p.multipathLoss = parseUnit(value, ctx);
    } else if (key == "fault.intensity") {
      p.faults.intensity = parseUnit(value, ctx);
    } else if (key == "fault.seed") {
      const double v = parseNonNegative(value, ctx);
      p.faults.seed = static_cast<std::uint64_t>(v);
    } else if (key == "fault.dead_antenna_prob") {
      p.faults.deadAntennaProb = parseUnit(value, ctx);
    } else if (key == "fault.stuck_switch_rate") {
      p.faults.stuckSwitchRatePerS = parseNonNegative(value, ctx);
    } else if (key == "fault.stuck_switch_duration") {
      p.faults.stuckSwitchMeanDurS = parsePositive(value, ctx);
    } else if (key == "fault.switch_jitter") {
      p.faults.switchJitterRel = parseNonNegative(value, ctx);
    } else if (key == "fault.switch_settle") {
      p.faults.switchSettleRel = parseNonNegative(value, ctx);
    } else if (key == "fault.gain_drift_sigma") {
      p.faults.gainDriftLogSigma = parseNonNegative(value, ctx);
    } else if (key == "fault.lna_saturation_rate") {
      p.faults.lnaSaturationRatePerS = parseNonNegative(value, ctx);
    } else if (key == "fault.lna_saturation_duration") {
      p.faults.lnaSaturationMeanDurS = parsePositive(value, ctx);
    } else if (key == "fault.lna_saturation_gain") {
      p.faults.lnaSaturationGain = parsePositive(value, ctx);
    } else if (key == "fault.phase_bits") {
      p.faults.phaseShifterBits = parseCount(value, ctx, 0, 16);
    } else if (key == "fault.phase_stuck_rate") {
      p.faults.phaseStuckBitRatePerS = parseNonNegative(value, ctx);
    } else if (key == "fault.phase_stuck_duration") {
      p.faults.phaseStuckBitMeanDurS = parsePositive(value, ctx);
    } else if (key == "fault.control_drop_prob") {
      p.faults.controlDropProb = parseUnit(value, ctx);
    } else if (key == "fault.control_corrupt_prob") {
      p.faults.controlCorruptProb = parseUnit(value, ctx);
    } else if (key == "fault.control_reorder_prob") {
      p.faults.controlReorderProb = parseUnit(value, ctx);
    } else if (key == "fault.control_duplicate_prob") {
      p.faults.controlDuplicateProb = parseUnit(value, ctx);
    } else if (key == "fault.link_burst_rate") {
      p.faults.linkBurstRatePerS = parseNonNegative(value, ctx);
    } else if (key == "fault.link_burst_duration") {
      p.faults.linkBurstMeanDurS = parsePositive(value, ctx);
    } else if (key == "fault.link_burst_loss_prob") {
      p.faults.linkBurstLossProb = parseUnit(value, ctx);
    } else if (key == "fault.radar_drop_prob") {
      p.faults.radarDropProb = parseUnit(value, ctx);
    } else if (key == "fault.adc_saturation_rate") {
      p.faults.adcSaturationRatePerS = parseNonNegative(value, ctx);
    } else if (key == "fault.adc_saturation_duration") {
      p.faults.adcSaturationMeanDurS = parsePositive(value, ctx);
    } else if (key == "fault.adc_clip_level") {
      p.faults.adcClipLevel = parsePositive(value, ctx);
    } else if (key == "attack.match_radius") {
      p.attack.matchRadiusM = parsePositive(value, ctx);
    } else if (key == "attack.radar") {
      // One secondary attacker radar per line: x y axis_x axis_y.
      const auto v = parseNumbers(value, ctx, 4);
      const Vec2 axis{v[2], v[3]};
      if (axis.norm() <= 0.0) ctx.fail("radar axis must be non-zero");
      p.attack.secondaries.push_back({{v[0], v[1]}, axis.normalized()});
    } else {
      ctx.fail("unknown key '" + key + "'");
    }

    // Remember the last line of each semantically-validated section so an
    // end-of-parse validate() failure has a line to point at.
    if (key.rfind("fault.", 0) == 0) {
      p.faultsMark.note(ctx);
    } else if (key.rfind("attack.", 0) == 0) {
      p.attackMark.note(ctx);
    } else if (key.rfind("radar.", 0) == 0) {
      p.radarMark.note(ctx);
    }
  }
  if (in.bad()) {
    throw std::runtime_error(sourceName + ": read error (truncated input?)");
  }
  try {
    p.faults.validate();
  } catch (const std::exception& e) {
    failSemantic(sourceName, p.faultsMark,
                 std::string("invalid fault config: ") + e.what());
  }
  try {
    p.attack.validate();
  } catch (const std::exception& e) {
    failSemantic(sourceName, p.attackMark,
                 std::string("invalid attack config: ") + e.what());
  }

  // Assemble on top of the office defaults (sensing chain, detector...).
  Scenario scenario = makeOfficeScenario();
  env::FloorPlan plan(p.roomName, p.roomWidth, p.roomHeight,
                      p.wallReflectivity);
  for (const auto& c : p.clutter) plan.addClutter(c.position, c.amplitude);
  for (const auto& w : p.interiorWalls) plan.addWall(w);
  scenario.plan = std::move(plan);

  scenario.sensing.radar.position = p.radarPos;
  scenario.sensing.radar.arrayAxis = p.radarAxis.normalized();
  if (p.radarSampleRateHz > 0.0) {
    scenario.sensing.radar.chirp.sampleRateHz = p.radarSampleRateHz;
  }
  if (p.radarAntennas > 0) scenario.sensing.radar.numAntennas = p.radarAntennas;
  try {
    scenario.sensing.radar.validate();
  } catch (const std::exception& e) {
    failSemantic(sourceName, p.radarMark,
                 std::string("invalid radar config: ") + e.what());
  }
  constexpr double kMargin = 0.75;
  scenario.sensing.detector.bounds = tracking::WorldBounds{
      {-kMargin, -kMargin}, {p.roomWidth + kMargin, p.roomHeight + kMargin}};

  scenario.panel = reflector::AntennaPanel(p.panelBase, p.panelDirection,
                                           p.panelCount, p.panelSpacing);
  scenario.controllerConfig.assumedRadarPosition = p.radarPos;
  scenario.snapshot.multipathLoss = p.multipathLoss;
  scenario.snapshot.multipathObserver = p.radarPos;
  scenario.faults = p.faults;
  scenario.attack = p.attack;
  return scenario;
}

Scenario loadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("loadScenarioFile: cannot open " + path);
  return loadScenario(in, path);
}

}  // namespace rfp::core
