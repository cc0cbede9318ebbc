// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The `hyperdom_cli` command-line tool, as a library so tests can drive it
// without spawning processes. Commands:
//
//   generate    --out=FILE --n=N --dim=D [--mu=10] [--centers=gaussian|
//               uniform] [--radii=gaussian|uniform] [--seed=S]
//       writes a synthetic dataset as CSV (data/csv.h format)
//   dominate    --sa=SPHERE --sb=SPHERE --sq=SPHERE [--criterion=NAME|all]
//       decides Dom(Sa, Sb, Sq); SPHERE is "x,y,...;r"
//   knn         --data=FILE --query=SPHERE [--k=10] [--criterion=NAME]
//               [--strategy=hs|df] [--deadline-ms=T] [--node-budget=N]
//       runs the Definition-2 kNN over an SS-tree built from FILE; an
//       expired deadline yields a flagged best-effort answer
//   rank        --data=FILE --target=ID --query=SPHERE [--criterion=NAME]
//       prints the possible-rank interval of object ID
//   snapshot    --op=save|load|verify --file=SNAP [--index=ss|vp]
//               [--data=FILE]
//       saves/loads/verifies a checksummed index snapshot; load with
//       --data rebuilds from the raw data when the snapshot is corrupt
//   experiment  --data=FILE [--queries=10000] [--repeats=3] [--seed=S]
//       runs the Section-7.1 dominance experiment on FILE
//
// Global flags: --fault-site=SITE / --fault-rate=P arm the fault-injection
// registry (common/fault.h) before the command runs; the probabilistic
// mode derives every decision from --seed, so failures reproduce exactly.
// Any other flag a command does not take is a usage error (exit 2),
// reported before the command loads data or listens.
//
// Criterion names: minmax, mbr, gp, trigonometric, hyperbola, oracle.

#ifndef HYPERDOM_TOOLS_CLI_H_
#define HYPERDOM_TOOLS_CLI_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "dominance/criterion.h"

namespace hyperdom {
namespace cli {

/// A parsed command line: the command word plus --key=value flags.
struct ParsedArgs {
  std::string command;
  std::map<std::string, std::string> flags;

  /// Flag lookup with default.
  std::string GetFlag(const std::string& key,
                      const std::string& fallback = "") const;
};

/// Parses "command --k=v ..." argument vectors (argv[0] excluded).
/// Fails on missing command, non-flag tokens or malformed flags.
Result<ParsedArgs> ParseArgs(const std::vector<std::string>& args);

/// Parses a sphere literal "x,y,...;r" (at least one coordinate; r >= 0).
Result<Hypersphere> ParseSphere(const std::string& spec);

/// Parses a criterion name (see header comment). "all" is not accepted
/// here; commands that support it handle it themselves.
Result<CriterionKind> ParseCriterion(const std::string& name);

/// Runs the tool. Writes human output to `out`, errors to `err`; returns
/// the process exit code (0 on success).
int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace cli
}  // namespace hyperdom

#endif  // HYPERDOM_TOOLS_CLI_H_
