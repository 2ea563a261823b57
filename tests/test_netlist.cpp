#include <gtest/gtest.h>

#include <cmath>

#include "netlist/circuit.h"
#include "netlist/spice_writer.h"
#include "netlist/waveform.h"
#include "tech/builtin.h"
#include "util/units.h"

namespace oasys::ckt {
namespace {

using util::um;

// ---- waveforms --------------------------------------------------------------

TEST(Waveform, DcIsConstant) {
  const Waveform w = Waveform::dc(2.5);
  EXPECT_DOUBLE_EQ(w.dc_value(), 2.5);
  EXPECT_DOUBLE_EQ(w.value(0.0), 2.5);
  EXPECT_DOUBLE_EQ(w.value(1e9), 2.5);
  EXPECT_DOUBLE_EQ(w.ac_mag(), 0.0);
}

TEST(Waveform, AcCarriesPhasor) {
  const Waveform w = Waveform::ac(1.0, 0.5, 180.0);
  EXPECT_DOUBLE_EQ(w.dc_value(), 1.0);
  EXPECT_DOUBLE_EQ(w.ac_mag(), 0.5);
  EXPECT_DOUBLE_EQ(w.ac_phase_deg(), 180.0);
}

TEST(Waveform, PulseShape) {
  const Waveform w = Waveform::pulse(0.0, 1.0, /*delay=*/1.0, /*rise=*/1.0,
                                     /*fall=*/1.0, /*width=*/2.0,
                                     /*period=*/10.0);
  EXPECT_DOUBLE_EQ(w.value(0.5), 0.0);   // before delay
  EXPECT_DOUBLE_EQ(w.value(1.5), 0.5);   // mid-rise
  EXPECT_DOUBLE_EQ(w.value(3.0), 1.0);   // on
  EXPECT_DOUBLE_EQ(w.value(4.5), 0.5);   // mid-fall
  EXPECT_DOUBLE_EQ(w.value(6.0), 0.0);   // off
  EXPECT_DOUBLE_EQ(w.value(11.5), 0.5);  // periodic repeat
  EXPECT_DOUBLE_EQ(w.dc_value(), 0.0);   // DC analyses see v1
}

TEST(Waveform, NextBreakpointWalksThePulseCorners) {
  const Waveform w = Waveform::pulse(0.0, 1.0, /*delay=*/1.0, /*rise=*/1.0,
                                     /*fall=*/1.0, /*width=*/2.0,
                                     /*period=*/10.0);
  // Corners strictly after t, period after period.
  EXPECT_DOUBLE_EQ(w.next_breakpoint(0.0), 1.0);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(1.0), 2.0);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(2.5), 4.0);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(4.0), 5.0);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(5.0), 11.0);
  EXPECT_DOUBLE_EQ(w.next_breakpoint(11.0), 12.0);
  // A single pulse ends; DC and an undelayed sine have no corners.
  const Waveform once = Waveform::pulse(0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0);
  EXPECT_DOUBLE_EQ(once.next_breakpoint(4.5), 5.0);
  EXPECT_TRUE(std::isinf(once.next_breakpoint(5.0)));
  EXPECT_TRUE(std::isinf(Waveform::dc(1.0).next_breakpoint(0.0)));
  EXPECT_TRUE(std::isinf(Waveform::sine(0.0, 1.0, 1e3).next_breakpoint(0.0)));
  EXPECT_DOUBLE_EQ(Waveform::sine(0.0, 1.0, 1e3, 2e-3).next_breakpoint(0.0),
                   2e-3);
  // A period shorter than the pulse truncates it: no corner past the
  // period within one.
  const Waveform cut = Waveform::pulse(0.0, 1.0, 0.0, 1.0, 1.0, 5.0, 3.0);
  EXPECT_DOUBLE_EQ(cut.next_breakpoint(1.5), 3.0);
}

TEST(Waveform, SineShape) {
  const Waveform w = Waveform::sine(1.0, 0.5, 1e3, /*delay=*/1e-3);
  EXPECT_DOUBLE_EQ(w.value(0.0), 1.0);  // before delay: offset
  EXPECT_NEAR(w.value(1e-3 + 0.25e-3), 1.5, 1e-9);  // quarter period
  EXPECT_THROW(Waveform::sine(0.0, 1.0, 0.0), std::invalid_argument);
}

TEST(Waveform, WithDcAndWithAc) {
  const Waveform w = Waveform::ac(1.0, 0.5).with_dc(2.0).with_ac(0.25, 90.0);
  EXPECT_DOUBLE_EQ(w.dc_value(), 2.0);
  EXPECT_DOUBLE_EQ(w.ac_mag(), 0.25);
  EXPECT_DOUBLE_EQ(w.ac_phase_deg(), 90.0);
}

// ---- circuit ----------------------------------------------------------------

TEST(Circuit, NodeInterning) {
  Circuit c;
  const NodeId a = c.node("A");
  EXPECT_EQ(c.node("a"), a);  // case-insensitive
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_NE(c.node("b"), a);
  EXPECT_EQ(c.num_nodes(), 3u);  // ground + a + b
  EXPECT_EQ(c.node_name(a), "a");
  EXPECT_TRUE(c.find_node("a").has_value());
  EXPECT_FALSE(c.find_node("zzz").has_value());
}

TEST(Circuit, RejectsInvalidElements) {
  Circuit c;
  const NodeId a = c.node("a");
  EXPECT_THROW(c.add_resistor("R1", a, kGround, 0.0),
               std::invalid_argument);
  EXPECT_THROW(c.add_resistor("R1", a, kGround, -5.0),
               std::invalid_argument);
  EXPECT_THROW(c.add_capacitor("C1", a, kGround, 0.0),
               std::invalid_argument);
  EXPECT_THROW(c.add_mosfet("M1", a, a, kGround, kGround,
                            mos::MosType::kNmos, 0.0, 1e-6),
               std::invalid_argument);
  EXPECT_THROW(c.add_mosfet("M1", a, a, kGround, kGround,
                            mos::MosType::kNmos, 1e-6, 1e-6, 0),
               std::invalid_argument);
}

TEST(Circuit, RejectsDuplicateNames) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("R1", a, kGround, 1e3);
  EXPECT_THROW(c.add_resistor("R1", a, kGround, 2e3),
               std::invalid_argument);
  // Different element kinds still share the namespace.
  EXPECT_THROW(c.add_capacitor("R1", a, kGround, 1e-12),
               std::invalid_argument);
}

TEST(Circuit, SourceLookupAndMutation) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, kGround, Waveform::dc(1.0));
  c.add_vsource("V2", a, kGround, Waveform::dc(2.0));
  ASSERT_TRUE(c.find_vsource("V2").has_value());
  EXPECT_EQ(*c.find_vsource("V2"), 1u);
  EXPECT_FALSE(c.find_vsource("V9").has_value());
  c.vsource(1).wave = Waveform::dc(3.0);
  EXPECT_DOUBLE_EQ(c.vsources()[1].wave.dc_value(), 3.0);
  EXPECT_THROW(c.vsource(5), std::out_of_range);
}

TEST(Circuit, DanglingNodeDetection) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add_resistor("R1", a, b, 1e3);
  c.add_resistor("R2", a, kGround, 1e3);
  const auto dangling = c.dangling_nodes();
  ASSERT_EQ(dangling.size(), 1u);
  EXPECT_EQ(dangling[0], "b");
}

TEST(Circuit, ElementCount) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("R1", a, kGround, 1e3);
  c.add_capacitor("C1", a, kGround, 1e-12);
  c.add_vsource("V1", a, kGround, Waveform::dc(1.0));
  c.add_isource("I1", a, kGround, Waveform::dc(1e-6));
  c.add_mosfet("M1", a, a, kGround, kGround, mos::MosType::kNmos, um(10.0),
               um(5.0));
  EXPECT_EQ(c.num_elements(), 5u);
}

// ---- SPICE writer --------------------------------------------------------------

TEST(SpiceWriter, DeckContainsAllElements) {
  const tech::Technology t = tech::five_micron();
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId out = c.node("out");
  c.add_vsource("DD", vdd, kGround, Waveform::dc(5.0));
  c.add_resistor("L", vdd, out, 10e3);
  c.add_capacitor("LOAD", out, kGround, 1e-12);
  c.add_isource("B", vdd, out, Waveform::dc(1e-6));
  c.add_mosfet("1", out, out, kGround, kGround, mos::MosType::kNmos,
               um(20.0), um(5.0));
  const std::string deck = to_spice_deck(c, t);
  EXPECT_NE(deck.find("VDD vdd 0 DC 5"), std::string::npos);
  EXPECT_NE(deck.find("RL vdd out 10k"), std::string::npos);
  EXPECT_NE(deck.find("CLOAD out 0 1p"), std::string::npos);
  EXPECT_NE(deck.find("IB vdd out DC 1u"), std::string::npos);
  EXPECT_NE(deck.find("M1 out out 0 0 nmos1"), std::string::npos);
  EXPECT_NE(deck.find(".MODEL nmos1 NMOS"), std::string::npos);
  EXPECT_NE(deck.find(".MODEL pmos1 PMOS"), std::string::npos);
  EXPECT_NE(deck.find(".END"), std::string::npos);
}

TEST(SpiceWriter, AcCardEmitted) {
  const tech::Technology t = tech::five_micron();
  Circuit c;
  const NodeId in = c.node("in");
  c.add_vsource("IN", in, kGround, Waveform::ac(1.0, 0.5, 180.0));
  c.add_resistor("1", in, kGround, 1e3);
  const std::string deck = to_spice_deck(c, t);
  EXPECT_NE(deck.find("VIN in 0 DC 1 AC 500m 180"), std::string::npos);
}

TEST(SpiceWriter, ModelCardsCarryLevel1Parameters) {
  const tech::Technology t = tech::five_micron();
  const std::string cards = spice_model_cards(t);
  EXPECT_NE(cards.find("LEVEL=1"), std::string::npos);
  EXPECT_NE(cards.find("VTO=800m"), std::string::npos);
  EXPECT_NE(cards.find("KP=24u"), std::string::npos);
  EXPECT_NE(cards.find("GAMMA=400m"), std::string::npos);
}

}  // namespace
}  // namespace oasys::ckt
