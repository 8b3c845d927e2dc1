/**
 * @file
 * A small key=value option store used by examples and bench binaries.
 *
 * Most configuration flows through plain structs with defaults copied
 * from Table 1 of the paper; Options exists so command-line users can
 * override individual knobs (`stms_quickstart workload=oltp-db2
 * sampling=0.125`).
 */

#ifndef STMS_COMMON_CONFIG_HH
#define STMS_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace stms
{

/** Parsed key=value command-line options with typed accessors. */
class Options
{
  public:
    Options() = default;

    /** Parse argv-style arguments of the form key=value. */
    static Options fromArgs(int argc, char **argv);

    /** Parse a single key=value token (leading "--" or "-" dashes are
     *  accepted and stripped); returns false on bad syntax. */
    bool parseToken(const std::string &token);

    bool has(const std::string &key) const;

    std::string get(const std::string &key,
                    const std::string &fallback) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    void set(const std::string &key, const std::string &value);

    /** All keys, sorted; handy for help/diagnostic output. */
    std::vector<std::string> keys() const;

    /** All key/value pairs, key-sorted (the result store fingerprints
     *  and persists an experiment's options in this shape). */
    std::vector<std::pair<std::string, std::string>> items() const;

    /** Keys present but never looked up through has()/get*() since
     *  construction or the last forgetReads(), sorted. The driver
     *  rejects these after planning: nothing would read them. */
    std::vector<std::string> unreadKeys() const;

    /** Print "unknown option 'KEY' (@p why)" to stderr for each of
     *  unreadKeys(); returns true if there was any. */
    bool reportUnread(const std::string &why) const;

    /** Forget which keys were read (a copy inherits its source's). */
    void forgetReads() { read_.clear(); }

  private:
    /** Record a lookup of @p key. Not synchronized: Options are read
     *  by one thread at a time (plan/report, never the run workers). */
    void markRead(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> read_;
};

/** Parse a size string like "64M", "8K", "1.5K", "512" into bytes.
 *  A negative, non-finite or >= 2^64 size is fatal. */
std::uint64_t parseSize(const std::string &text);

/**
 * Parse a decimal integer in [@p min, @p max]: digits only (no sign,
 * whitespace or base prefix), so "-1" cannot wrap, "010" is ten and
 * "4294967296" cannot truncate. Leaves @p value alone on failure.
 */
bool parseBounded(const std::string &text, std::uint64_t min,
                  std::uint64_t max, std::uint64_t &value);

/** Render a byte count as a human-readable string ("64.0MB"). */
std::string formatSize(std::uint64_t bytes);

} // namespace stms

#endif // STMS_COMMON_CONFIG_HH
