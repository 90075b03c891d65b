#include "logging.hh"

#include <atomic>
#include <iostream>
#include <string_view>

namespace tengig {

namespace {
std::atomic<bool> quietFlag{false};
} // namespace

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet);
}

void
fatalWithContext(const FatalError &e, const std::string &context)
{
    constexpr std::string_view prefix = "fatal: ";
    std::string_view msg = e.what();
    if (msg.substr(0, prefix.size()) == prefix)
        msg.remove_prefix(prefix.size());
    throw FatalError(detail::concat(prefix, context, ": ", msg));
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " [" << file << ":" << line << "]";
    throw PanicError(os.str());
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "fatal: " << msg << " [" << file << ":" << line << "]";
    throw FatalError(os.str());
}

void
warnImpl(const std::string &msg)
{
    if (!quietFlag.load())
        std::cerr << "warn: " << msg << "\n";
}

void
informImpl(const std::string &msg)
{
    if (!quietFlag.load())
        std::cout << "info: " << msg << "\n";
}

} // namespace detail

} // namespace tengig
