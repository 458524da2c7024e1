//===- driver/scnetcat.cpp - Line-protocol client for scserved ------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// scnetcat: a tiny nc(1)-alike for the serve protocol, so scripted
/// sessions against a socket-mode scserved need no external tools:
///
///   scnetcat --unix /tmp/poce.sock  < requests.txt
///   scnetcat --connect 127.0.0.1:7075
///
/// Reads request lines from stdin, sends each, prints the reply (all
/// payload lines for the multi-line `metrics` reply). Exits 0 on stdin
/// EOF, 1 on connection errors.
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <iostream>
#include <string>

using namespace poce;

int main(int Argc, char **Argv) {
  CommandLine Cmd("scnetcat",
                  "send newline-protocol requests to a socket-mode "
                  "scserved and print the replies");
  std::string Tcp;
  std::string Unix;
  uint64_t RetryMs = 0;
  Cmd.addString("connect", &Tcp, "TCP server address as host:port");
  Cmd.addString("unix", &Unix, "Unix-domain socket path");
  Cmd.addUInt("retry-ms", &RetryMs,
              "retry the connect with jittered exponential backoff for up "
              "to this long before giving up (0 = single attempt), so "
              "scripts need not race server startup with sleeps");
  if (!Cmd.parse(Argc, Argv))
    return 1;
  if (Tcp.empty() == Unix.empty()) {
    std::fprintf(stderr,
                 "scnetcat: exactly one of --connect or --unix\n");
    return 1;
  }

  net::LineClient Client;
  Status Connected =
      RetryMs ? (Tcp.empty() ? Client.connectUnixWithBackoff(Unix, RetryMs)
                             : Client.connectTcpWithBackoff(Tcp, RetryMs))
              : (Tcp.empty() ? Client.connectUnix(Unix)
                             : Client.connectTcp(Tcp));
  if (!Connected) {
    std::fprintf(stderr, "scnetcat: %s\n", Connected.toString().c_str());
    return 1;
  }

  std::string Line;
  while (std::getline(std::cin, Line)) {
    // Blank and comment lines get no reply from the server; sending
    // them and waiting would deadlock the lockstep loop, so skip here.
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos || Line[First] == '#')
      continue;
    std::string Reply;
    Status Got = Client.request(Line, Reply);
    if (!Got) {
      std::fprintf(stderr, "scnetcat: %s\n", Got.toString().c_str());
      return 1;
    }
    std::printf("%s\n", Reply.c_str());
    std::fflush(stdout);
    if (Reply == "ok bye")
      break;
  }
  return 0;
}
