#include "stat_registry.hh"

#include "sim/logging.hh"

namespace tengig {
namespace obs {

namespace {

/** Quoted registrant description for collision diagnostics. */
std::string
registrant(const std::string &desc)
{
    return desc.empty() ? std::string("<no description>")
                        : "\"" + desc + "\"";
}

} // namespace

StatGroup &
StatGroup::group(const std::string &name)
{
    fatal_if(name.empty() || name.find('.') != std::string::npos,
             "stat group name '", name, "' must be one path segment");
    if (auto it = entries.find(name); it != entries.end()) {
        fatal("stat group '", name, "' collides with a stat already "
              "registered at that path by ",
              registrant(it->second.desc));
    }
    auto it = children.find(name);
    if (it == children.end())
        it = children.emplace(name, std::make_unique<StatGroup>()).first;
    return *it->second;
}

const StatGroup *
StatGroup::findGroup(const std::string &name) const
{
    auto it = children.find(name);
    return it == children.end() ? nullptr : it->second.get();
}

void
StatGroup::checkFresh(const std::string &name,
                      const std::string &new_desc) const
{
    fatal_if(name.empty() || name.find('.') != std::string::npos,
             "stat name '", name, "' must be one path segment");
    if (auto it = entries.find(name); it != entries.end()) {
        // Name both registrants: a silent shadow here would make one
        // tenant's vf.<id>.* subtree report another's numbers.
        fatal("stat '", name, "' registered twice in the same group: "
              "already registered by ", registrant(it->second.desc),
              ", now re-registered by ", registrant(new_desc));
    }
    fatal_if(children.count(name), "stat '", name,
             "' collides with a child group of the same name (new "
             "registrant: ", registrant(new_desc), ")");
}

void
StatGroup::add(const std::string &name, const stats::Counter &c,
               std::string desc)
{
    checkFresh(name, desc);
    Entry e;
    e.kind = Kind::CounterK;
    e.counter = &c;
    e.desc = std::move(desc);
    entries.emplace(name, std::move(e));
}

void
StatGroup::add(const std::string &name, const stats::Histogram &h,
               std::string desc)
{
    checkFresh(name, desc);
    Entry e;
    e.kind = Kind::HistogramK;
    e.histogram = &h;
    e.desc = std::move(desc);
    entries.emplace(name, std::move(e));
}

void
StatGroup::derived(const std::string &name, std::function<double()> fn,
                   std::string desc)
{
    checkFresh(name, desc);
    fatal_if(!fn, "derived stat '", name, "' with a null closure");
    Entry e;
    e.kind = Kind::DerivedK;
    e.fn = std::move(fn);
    e.desc = std::move(desc);
    entries.emplace(name, std::move(e));
}

const StatGroup::Entry *
StatGroup::resolve(const std::string &path, const StatGroup **owner) const
{
    const StatGroup *g = this;
    std::size_t start = 0;
    while (true) {
        std::size_t dot = path.find('.', start);
        std::string seg = path.substr(
            start, dot == std::string::npos ? std::string::npos
                                            : dot - start);
        if (dot == std::string::npos) {
            auto it = g->entries.find(seg);
            if (it == g->entries.end())
                return nullptr;
            if (owner)
                *owner = g;
            return &it->second;
        }
        const StatGroup *child = g->findGroup(seg);
        if (!child)
            return nullptr;
        g = child;
        start = dot + 1;
    }
}

const StatGroup::Entry &
StatGroup::resolveChecked(const std::string &path) const
{
    const Entry *e = resolve(path);
    fatal_if(!e, "no stat registered at '", path, "'");
    return *e;
}

const stats::Counter &
StatGroup::counter(const std::string &path) const
{
    const Entry &e = resolveChecked(path);
    fatal_if(e.kind != Kind::CounterK, "stat '", path,
             "' is not a counter");
    return *e.counter;
}

const stats::Histogram &
StatGroup::histogram(const std::string &path) const
{
    const Entry &e = resolveChecked(path);
    fatal_if(e.kind != Kind::HistogramK, "stat '", path,
             "' is not a histogram");
    return *e.histogram;
}

double
StatGroup::value(const std::string &path) const
{
    const Entry &e = resolveChecked(path);
    switch (e.kind) {
      case Kind::CounterK:
        return static_cast<double>(e.counter->value());
      case Kind::HistogramK:
        return e.histogram->mean();
      case Kind::DerivedK:
        return e.fn();
    }
    panic("[stats] unreachable kind for stat '", path, "'");
}

bool
StatGroup::has(const std::string &path) const
{
    return resolve(path) != nullptr;
}

void
StatGroup::appendNames(const std::string &prefix,
                       std::vector<std::string> &out) const
{
    for (const auto &[name, e] : entries)
        out.push_back(prefix + name);
    for (const auto &[name, child] : children)
        child->appendNames(prefix + name + ".", out);
}

std::vector<std::string>
StatGroup::names() const
{
    std::vector<std::string> out;
    appendNames("", out);
    // appendNames() emits each level's own stats before its children, so
    // the result interleaves depths; sort for a stable listing.
    std::sort(out.begin(), out.end());
    return out;
}

json::Value
StatGroup::toJson() const
{
    json::Value obj = json::Value::object();
    for (const auto &[name, e] : entries) {
        switch (e.kind) {
          case Kind::CounterK:
            obj.set(name, e.counter->value());
            break;
          case Kind::HistogramK: {
            json::Value h = json::Value::object();
            h.set("count", e.histogram->count());
            h.set("mean", e.histogram->mean());
            h.set("p50", e.histogram->p50());
            h.set("p95", e.histogram->p95());
            h.set("p99", e.histogram->p99());
            h.set("max", e.histogram->maxSample());
            obj.set(name, std::move(h));
            break;
          }
          case Kind::DerivedK:
            obj.set(name, e.fn());
            break;
        }
    }
    for (const auto &[name, child] : children)
        obj.set(name, child->toJson());
    return obj;
}

} // namespace obs
} // namespace tengig
