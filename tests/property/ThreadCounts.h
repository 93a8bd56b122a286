//===- tests/property/ThreadCounts.h - Thread counts ------------*- C++ -*-===//
//
// Part of the wiresort project.
//
// The SummaryEngine thread counts the differential suites sweep:
// serial, two small pools, and the machine's own width. Listing 2 and 4
// explicitly means a 1-core CI box still runs the pool scheduler, so a
// race in it cannot hide behind hardware_concurrency() == 1.
//
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_TESTS_PROPERTY_THREADCOUNTS_H
#define WIRESORT_TESTS_PROPERTY_THREADCOUNTS_H

#include <algorithm>
#include <thread>
#include <vector>

namespace wiresort {

/// {1, 2, 4, hardware_concurrency()}, ascending, without duplicates.
inline std::vector<unsigned> differentialThreadCounts() {
  std::vector<unsigned> Counts = {
      1u, 2u, 4u, std::max(1u, std::thread::hardware_concurrency())};
  std::sort(Counts.begin(), Counts.end());
  Counts.erase(std::unique(Counts.begin(), Counts.end()), Counts.end());
  return Counts;
}

} // namespace wiresort

#endif // WIRESORT_TESTS_PROPERTY_THREADCOUNTS_H
