// Reproduces Table I: WDM photonic link technologies, with the number of
// links and aggregate transceiver power needed for a 2 TB/s MCM escape.
#include <iostream>

#include "core/report.hpp"
#include "phot/links.hpp"
#include "sim/table.hpp"

int main() {
  using namespace photorack;
  using phot::GBps;

  core::print_banner(std::cout, "Table I: WDM photonic link technologies",
                     "Table I (Section III-B)");

  const GBps escape{2000.0};  // the paper sizes the table for 2 TB/s
  sim::Table table({"Link", "BW (Gbps)", "Energy (pJ/bit)", "Gbps x Channels",
                    "#Links (2TB/s)", "Agg. W (2TB/s)", "Ref"});
  for (const auto& link : phot::table1_links()) {
    table.add_row({link.name, sim::fmt_fixed(link.bandwidth.value, 0),
                   sim::fmt_fixed(link.energy.value, 2),
                   sim::fmt_fixed(link.gbps_per_channel.value, 0) + " x " +
                       sim::fmt_int(link.channels),
                   sim::fmt_int(link.links_for_escape(escape)),
                   sim::fmt_fixed(link.power_for_escape(escape).value, 1), link.reference});
  }
  table.print(std::cout);

  std::cout << "\npaper-vs-measured (paper values from Table I):\n";
  const auto& links = phot::table1_links();
  core::check_line(std::cout, "100G links for 2TB/s", 160,
                   links[0].links_for_escape(escape));
  core::check_line(std::cout, "400G links for 2TB/s", 40,
                   links[1].links_for_escape(escape));
  core::check_line(std::cout, "TeraPHY links for 2TB/s", 21,
                   links[2].links_for_escape(escape));
  core::check_line(std::cout, "1T links for 2TB/s", 16, links[3].links_for_escape(escape));
  core::check_line(std::cout, "2T links for 2TB/s", 8, links[4].links_for_escape(escape));
  core::check_line(std::cout, "100G aggregate W", 480,
                   links[0].power_for_escape(escape).value);
  core::check_line(std::cout, "TeraPHY aggregate W", 14.4,
                   links[2].power_for_escape(escape).value);
  core::check_line(std::cout, "1T aggregate W", 7.2,
                   links[3].power_for_escape(escape).value);
  core::check_line(std::cout, "2T aggregate W", 4.8,
                   links[4].power_for_escape(escape).value);
  std::cout << "note: the paper's 400G row prints 30 pJ/bit alongside 197 W; "
               "30 pJ/bit x 16 Tb/s is 480 W.  We print the computed value, "
               "so every row is its pJ/bit times the escape bandwidth.\n";
  return 0;
}
