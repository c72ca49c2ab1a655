#ifndef SES_COMMON_LOGGING_H_
#define SES_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace ses {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_logging {

/// Minimum level that is emitted (default kInfo). Not thread-safe to set
/// concurrently with logging; set once at startup.
LogLevel GetMinLevel();
void SetMinLevel(LogLevel level);

/// Collects a log line and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Like LogMessage, but aborts the process on destruction. Used by SES_CHECK.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Turns SES_CHECK's streamed message into a void expression, so both arms
/// of the macro's conditional have type void.
struct Voidify {
  // Lowest-precedence operator so it can swallow the stream expression.
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace ses

#define SES_LOG(level)                                          \
  ::ses::internal_logging::LogMessage(::ses::LogLevel::k##level, \
                                      __FILE__, __LINE__)        \
      .stream()

/// Aborts with a message when `cond` is false. Active in all build types:
/// these guard internal invariants whose violation would corrupt matching.
#define SES_CHECK(cond)                                               \
  (cond) ? (void)0                                                    \
         : ::ses::internal_logging::Voidify() &                       \
               ::ses::internal_logging::FatalLogMessage(__FILE__,     \
                                                        __LINE__)     \
                   .stream()                                          \
               << "Check failed: " #cond " "

#endif  // SES_COMMON_LOGGING_H_
