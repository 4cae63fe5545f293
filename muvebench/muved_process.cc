#include "muved_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "server/protocol.h"

extern char** environ;

namespace muvebench {

namespace {

using muve::common::Status;

// Reads one '\n'-terminated line from `fd`, waiting at most until
// `deadline`.  False on EOF, error or timeout.
bool ReadLine(int fd, std::chrono::steady_clock::time_point deadline,
              std::string* line) {
  line->clear();
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

}  // namespace

MuvedProcess::~MuvedProcess() { Stop(); }

Status MuvedProcess::Start(const std::string& binary,
                           const std::string& preload) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  std::vector<std::string> args = {binary, "--port=0"};
  if (!preload.empty()) args.push_back("--preload=" + preload);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int err = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (err != 0) {
    pid_ = -1;
    return Status::IoError("spawn " + binary + ": " + std::strerror(err));
  }

  // "muved listening on 127.0.0.1:<port> (...)", then one
  // "muved: preloaded <name>" line per preloaded table.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string line;
  if (!ReadLine(stdout_fd_, deadline, &line) ||
      line.find("listening on 127.0.0.1:") == std::string::npos) {
    Stop();
    return Status::IoError("muved did not start: " + line);
  }
  port_ = std::atoi(line.c_str() + line.find(':') + 1);
  const size_t preloads =
      preload.empty() ? 0 : muve::common::Split(preload, ',').size();
  for (size_t i = 0; i < preloads; ++i) {
    if (!ReadLine(stdout_fd_, deadline, &line) ||
        line.find("preloaded") == std::string::npos) {
      Stop();
      return Status::IoError("muved preload failed: " + line);
    }
  }
  return Status::OK();
}

void MuvedProcess::Stop() {
  if (pid_ > 0) {
    if (port_ > 0) {
      auto fd = muve::server::DialLocal(port_);
      if (fd.ok()) {
        auto request = muve::server::JsonValue::Object();
        request.Set("op", muve::server::JsonValue::String("shutdown"));
        (void)muve::server::RoundTrip(*fd, request);
        ::close(*fd);
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  port_ = 0;
}

}  // namespace muvebench
