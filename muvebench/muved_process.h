// A `muved` child process on an ephemeral loopback port.

#ifndef MUVEBENCH_MUVED_PROCESS_H_
#define MUVEBENCH_MUVED_PROCESS_H_

#include <sys/types.h>

#include <string>

#include "common/status.h"

namespace muvebench {

class MuvedProcess {
 public:
  MuvedProcess() = default;
  // Stops the server if it is still running.
  ~MuvedProcess();
  MuvedProcess(const MuvedProcess&) = delete;
  MuvedProcess& operator=(const MuvedProcess&) = delete;

  // Launches `binary --port=0 [--preload=...]` and returns once it is
  // listening and every preload has finished.
  muve::common::Status Start(const std::string& binary,
                             const std::string& preload);

  // Asks for a graceful shutdown over the wire and waits for the process
  // to exit; kills it if it has not exited within a few seconds.
  void Stop();

  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

}  // namespace muvebench

#endif  // MUVEBENCH_MUVED_PROCESS_H_
