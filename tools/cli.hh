/**
 * @file
 * The command-line vocabulary of dolos-sim, dolos_torture, dolos_fuzz
 * and the bench drivers: one strict argument walker. A number with
 * trailing junk, a sign or out of range, an unknown mode, workload,
 * engine spec or choice, and `--jobs 0` each print one diagnostic
 * line and exit through the tool's usage() with ExitUsage (2) —
 * rejected, never clamped or defaulted.
 */

#ifndef DOLOS_TOOLS_CLI_HH
#define DOLOS_TOOLS_CLI_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "dolos/config.hh"
#include "sim/exit_codes.hh"
#include "workloads/workload.hh"

namespace dolos::cli
{

/**
 * Strict base-0 unsigned parse (decimal, 0x hex, 0 octal): the whole
 * token must be a number that fits in 64 bits. A sign, leading
 * space, trailing junk or overflow yields nullopt.
 */
inline std::optional<std::uint64_t>
parseUnsigned(const char *text)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text, &end, 0);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return v;
}

/** Walks argv one flag at a time; see the file comment. */
class Args
{
  public:
    /** @p usage prints the tool's help and exits with its argument. */
    Args(int argc, char **argv, void (*usage)(int))
        : argc(argc), argv(argv), usage(usage)
    {
    }

    /** Advance to the next flag; false once argv is exhausted. */
    bool
    next()
    {
        if (++i >= argc)
            return false;
        current = argv[i];
        return true;
    }

    bool is(const char *name) const { return current == name; }

    /** Print a diagnostic line and exit through usage(ExitUsage). */
    template <typename... A>
    [[noreturn]] void
    fail(const char *fmt, A... a) const
    {
        if constexpr (sizeof...(A) == 0)
            std::fputs(fmt, stderr);
        else
            std::fprintf(stderr, fmt, a...);
        std::fputc('\n', stderr);
        usage(ExitUsage);
        std::exit(ExitUsage);
    }

    [[noreturn]] void
    unknown() const
    {
        fail("unknown option '%s'", current.c_str());
    }

    /** The flag's value (the next token); missing is an error. */
    const char *
    value()
    {
        if (i + 1 >= argc)
            fail("missing value for %s", current.c_str());
        return argv[++i];
    }

    /** The next token if it is not itself a flag (optional values). */
    const char *
    optionalValue()
    {
        if (i + 1 < argc && argv[i + 1][0] != '-')
            return argv[++i];
        return nullptr;
    }

    /** A strict unsigned value that must fit in @p T. */
    template <typename T = std::uint64_t>
    T
    number()
    {
        const char *text = value();
        const auto v = parseUnsigned(text);
        if (!v || *v > std::numeric_limits<T>::max())
            fail("bad numeric value '%s' for %s", text,
                 current.c_str());
        return T(*v);
    }

    /** A whole percentage, 0..100. */
    unsigned
    percent()
    {
        const unsigned p = number<unsigned>();
        if (p > 100)
            fail("%s takes 0..100, not %u", current.c_str(), p);
        return p;
    }

    /** --jobs N: worker threads, at least one. */
    unsigned
    jobs()
    {
        const unsigned n = number<unsigned>();
        if (n == 0)
            fail("%s must be >= 1", current.c_str());
        return n;
    }

    /** A mode name from securityModeCliNames. */
    SecurityMode
    mode()
    {
        const char *text = value();
        const auto m = parseSecurityMode(text);
        if (!m)
            fail("unknown mode '%s'", text);
        return *m;
    }

    /** A workload name from extendedWorkloadNames(). */
    std::string
    workload()
    {
        const std::string name = value();
        for (const auto &known : workloads::extendedWorkloadNames())
            if (name == known)
                return name;
        fail("unknown workload '%s'", name.c_str());
    }

    /** --opt-knobs all|none: the secure.bmtPipeline switch. */
    bool
    bmtPipeline()
    {
        const char *text = value();
        const auto piped = parseBmtPipelineSpec(text);
        if (!piped)
            fail("%s takes all|none, not '%s'", current.c_str(), text);
        return *piped;
    }

    /**
     * Index of the value within @p names (list them in enum order to
     * cast the index); anything else is an error.
     */
    template <std::size_t N>
    std::size_t
    choice(const char *const (&names)[N])
    {
        const std::string text = value();
        for (std::size_t k = 0; k < N; ++k)
            if (text == names[k])
                return k;
        std::string list = names[0];
        for (std::size_t k = 1; k < N; ++k)
            list.append("|").append(names[k]);
        fail("%s takes %s, not '%s'", current.c_str(), list.c_str(),
             text.c_str());
    }

  private:
    int argc;
    char **argv;
    void (*usage)(int);
    int i = 0;
    std::string current;
};

} // namespace dolos::cli

#endif // DOLOS_TOOLS_CLI_HH
