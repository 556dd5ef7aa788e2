#include "util/subprocess.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <mutex>
#include <stdexcept>

#include "obs/obs.hpp"

namespace haste::util {

namespace {

void ignore_sigpipe_once() {
  static std::once_flag flag;
  std::call_once(flag, [] { ::signal(SIGPIPE, SIG_IGN); });
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + ::strerror(errno));
}

}  // namespace

std::string ExitStatus::describe() const {
  if (exited) {
    // 127 is the shell/exec convention for "command not found": the child
    // _exit(127)s when execv fails, and conflating that with an ordinary
    // worker exit hides misconfigured --worker-bin paths in the manifest.
    if (exit_code == 127) return "exec failure (exit 127)";
    return "exit " + std::to_string(exit_code);
  }
  if (signaled) {
    const char* name = ::strsignal(term_signal);
    std::string text = "signal " + std::to_string(term_signal);
    if (name != nullptr) text += std::string(" (") + name + ")";
    return text;
  }
  return "unknown";
}

Subprocess Subprocess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::invalid_argument("Subprocess::spawn: empty argv");
  ignore_sigpipe_once();

  int to_child[2];    // parent writes -> child stdin
  int from_child[2];  // child stdout -> parent reads
  if (::pipe(to_child) != 0) throw_errno("pipe");
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw_errno("pipe");
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) ::close(fd);
    throw_errno("fork");
  }

  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout and exec. Only async-signal-safe
    // calls between fork and exec.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) ::close(fd);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);  // exec failed; the parent sees "exit 127"
  }

  ::close(to_child[0]);
  ::close(from_child[1]);
  // Parent-side fds must not leak into later children.
  ::fcntl(to_child[1], F_SETFD, FD_CLOEXEC);
  ::fcntl(from_child[0], F_SETFD, FD_CLOEXEC);

  Subprocess proc;
  proc.pid_ = pid;
  proc.stdin_fd_ = to_child[1];
  proc.stdout_fd_ = from_child[0];
  return proc;
}

Subprocess::Subprocess(Subprocess&& other) noexcept { *this = std::move(other); }

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (pid_ >= 0 && !reaped_) {
      kill();
      wait();
    }
    close_fds();
    pid_ = other.pid_;
    stdin_fd_ = other.stdin_fd_;
    stdout_fd_ = other.stdout_fd_;
    reaped_ = other.reaped_;
    status_ = other.status_;
    other.pid_ = -1;
    other.stdin_fd_ = -1;
    other.stdout_fd_ = -1;
    other.reaped_ = true;
  }
  return *this;
}

Subprocess::~Subprocess() {
  if (pid_ >= 0 && !reaped_) {
    kill();
    wait();
  }
  close_fds();
}

void Subprocess::close_fds() {
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdin_fd_ = -1;
  stdout_fd_ = -1;
}

bool Subprocess::write_line(const std::string& line) {
  if (stdin_fd_ < 0) return false;
  std::string payload = line;
  payload.push_back('\n');
  std::size_t written = 0;
  while (written < payload.size()) {
    const ssize_t n =
        ::write(stdin_fd_, payload.data() + written, payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE: the child is gone
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void Subprocess::close_stdin() {
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  stdin_fd_ = -1;
}

void Subprocess::kill(int sig) {
  if (pid_ >= 0 && !reaped_) ::kill(pid_, sig);
}

bool Subprocess::try_wait() {
  if (reaped_) return true;
  int raw = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &raw, WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r < 0 && errno == ECHILD) {
    // The child no longer exists as our waitable zombie: it was already
    // reaped elsewhere, or SIGCHLD is SIG_IGN so the kernel auto-reaps.
    // Report it as reaped with an unknown status — returning false here
    // would have callers poll the pid forever.
    reaped_ = true;
    return true;
  }
  if (r != pid_) return false;  // still running
  reaped_ = true;
  if (WIFEXITED(raw)) {
    status_.exited = true;
    status_.exit_code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    status_.signaled = true;
    status_.term_signal = WTERMSIG(raw);
  }
  return true;
}

ExitStatus Subprocess::wait() {
  if (reaped_) return status_;
  int raw = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &raw, 0);
  } while (r < 0 && errno == EINTR);
  reaped_ = true;
  if (r == pid_) {
    if (WIFEXITED(raw)) {
      status_.exited = true;
      status_.exit_code = WEXITSTATUS(raw);
    } else if (WIFSIGNALED(raw)) {
      status_.signaled = true;
      status_.term_signal = WTERMSIG(raw);
    }
  }
  return status_;
}

std::vector<std::size_t> poll_readable(const std::vector<int>& fds, int timeout_ms) {
  std::vector<struct pollfd> entries;
  std::vector<std::size_t> index_of;
  entries.reserve(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i] < 0) continue;
    entries.push_back({fds[i], POLLIN, 0});
    index_of.push_back(i);
  }
  std::vector<std::size_t> ready;
  if (entries.empty()) return ready;
  int n;
  do {
    n = ::poll(entries.data(), entries.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return ready;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    if (entries[e].revents & (POLLIN | POLLHUP | POLLERR)) ready.push_back(index_of[e]);
  }
  return ready;
}

std::vector<std::string> LineBuffer::feed(const char* data, std::size_t size) {
  std::vector<std::string> lines;
  if (overflowed_) return lines;  // connection is doomed; stop buffering
  buffer_.append(data, size);
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buffer_.find('\n', start);
    if (nl == std::string::npos) break;
    if (max_line_bytes_ > 0 && nl - start > max_line_bytes_) {
      overflow();
      return lines;
    }
    lines.push_back(buffer_.substr(start, nl - start));
    start = nl + 1;
  }
  buffer_.erase(0, start);
  if (max_line_bytes_ > 0 && buffer_.size() > max_line_bytes_) {
    overflow();
  }
  return lines;
}

void LineBuffer::overflow() {
  overflowed_ = true;
  buffer_.clear();
  buffer_.shrink_to_fit();  // a ballooned partial line is why the cap exists
  // The overflow kill is contract: shard manifests surface this counter.
  HASTE_OBS_COUNTER_ADD("net.overflow", 1);
}

}  // namespace haste::util
