/**
 * @file
 * Registered statistics tree.
 *
 * Components register their Counter / Histogram members (and
 * derived values as closures) into a StatGroup by dotted name at
 * construction time.  The registry holds live references, so a value
 * or a JSON document can be read at any simulated time, and lookups
 * are checked: resolving a name that was never registered is a fatal
 * error, never a silent 0.0.
 *
 * The tree mirrors the hardware: the NIC controller owns the root, and
 * each component registers under its own group ("sdram", "core0", ...).
 * Dotted paths address stats from any level: root.value("sdram.bursts").
 */

#ifndef TENGIG_OBS_STAT_REGISTRY_HH
#define TENGIG_OBS_STAT_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sim/stats.hh"

namespace tengig {
namespace obs {

/**
 * One level of the stat tree: named stats plus named child groups.
 */
class StatGroup
{
  public:
    StatGroup() = default;
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Find-or-create a child group. */
    StatGroup &group(const std::string &name);

    /** Child lookup without creation; nullptr when absent. */
    const StatGroup *findGroup(const std::string &name) const;

    /// @name Registration (name must be a single path segment)
    /// @{
    void add(const std::string &name, const stats::Counter &c,
             std::string desc = "");
    void add(const std::string &name, const stats::Histogram &h,
             std::string desc = "");

    /** Derived scalar computed at read time (ratios, utilizations). */
    void derived(const std::string &name, std::function<double()> fn,
                 std::string desc = "");
    /// @}

    /// @name Checked lookups by dotted path (fatal on unknown names)
    /// @{
    const stats::Counter &counter(const std::string &path) const;
    const stats::Histogram &histogram(const std::string &path) const;

    /** Scalar view of any stat kind (histograms report their mean). */
    double value(const std::string &path) const;
    /// @}

    bool has(const std::string &path) const;

    /** Every registered dotted path under this group, sorted. */
    std::vector<std::string> names() const;

    /** Structured snapshot (groups nest; histograms summarize). */
    json::Value toJson() const;

  private:
    enum class Kind { CounterK, HistogramK, DerivedK };

    struct Entry
    {
        Kind kind;
        const stats::Counter *counter = nullptr;
        const stats::Histogram *histogram = nullptr;
        std::function<double()> fn;
        std::string desc;
    };

    const Entry *resolve(const std::string &path,
                         const StatGroup **owner = nullptr) const;
    const Entry &resolveChecked(const std::string &path) const;
    /** Fatal (naming both registrants) unless @p name is unused. */
    void checkFresh(const std::string &name,
                    const std::string &new_desc) const;
    void appendNames(const std::string &prefix,
                     std::vector<std::string> &out) const;

    std::map<std::string, Entry> entries;
    std::map<std::string, std::unique_ptr<StatGroup>> children;
};

} // namespace obs
} // namespace tengig

#endif // TENGIG_OBS_STAT_REGISTRY_HH
