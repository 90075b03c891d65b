/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic() is for simulator bugs (aborts), fatal() for user/configuration
 * errors (exits), warn()/inform() for non-fatal status messages.
 */

#ifndef TENGIG_SIM_LOGGING_HH
#define TENGIG_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace tengig {

namespace detail {

/** Fold a parameter pack into a single string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Thrown by panic() so tests can assert on simulator invariants. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Thrown by fatal() for user-caused misconfiguration. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

#define panic(...) \
    ::tengig::detail::panicImpl(__FILE__, __LINE__, \
                                ::tengig::detail::concat(__VA_ARGS__))

#define fatal(...) \
    ::tengig::detail::fatalImpl(__FILE__, __LINE__, \
                                ::tengig::detail::concat(__VA_ARGS__))

#define panic_if(cond, ...) \
    do { \
        if (cond) \
            panic("assertion '" #cond "' failed: ", \
                  ::tengig::detail::concat(__VA_ARGS__)); \
    } while (0)

#define fatal_if(cond, ...) \
    do { \
        if (cond) \
            fatal(::tengig::detail::concat(__VA_ARGS__)); \
    } while (0)

template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Raise @p e again with @p context ahead of its message, keeping its
 * one "fatal: " prefix and its [file:line] tag, so a check that covers
 * many parts names the part that failed: "fatal: <context>: <message>
 * [file:line]".
 */
[[noreturn]] void fatalWithContext(const FatalError &e,
                                   const std::string &context);

/** Globally silence warn()/inform() (useful in property-test loops). */
void setQuiet(bool quiet);

} // namespace tengig

#endif // TENGIG_SIM_LOGGING_HH
