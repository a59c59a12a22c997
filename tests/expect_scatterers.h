#pragma once

/// \file expect_scatterers.h
/// Compares two scatterer lists entry by entry, every field bit for bit
/// (a memcmp of the structs would also compare their padding).

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "env/scatterer.h"

inline void expectSameScatterers(
    const std::vector<rfp::env::PointScatterer>& got,
    const std::vector<rfp::env::PointScatterer>& want) {
  ASSERT_EQ(got.size(), want.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < want.size(); ++i) {
    const rfp::env::PointScatterer& g = got[i];
    const rfp::env::PointScatterer& w = want[i];
    EXPECT_EQ(bits(g.position.x), bits(w.position.x)) << i;
    EXPECT_EQ(bits(g.position.y), bits(w.position.y)) << i;
    EXPECT_EQ(bits(g.amplitude), bits(w.amplitude)) << i;
    EXPECT_EQ(bits(g.radialOffsetM), bits(w.radialOffsetM)) << i;
    EXPECT_EQ(bits(g.beatFreqOffsetHz), bits(w.beatFreqOffsetHz)) << i;
    EXPECT_EQ(bits(g.phaseOffsetRad), bits(w.phaseOffsetRad)) << i;
    EXPECT_EQ(g.dynamic, w.dynamic) << i;
    EXPECT_EQ(g.sourceId, w.sourceId) << i;
    EXPECT_EQ(bits(g.multipathGain), bits(w.multipathGain)) << i;
  }
}
