//===- api/Socket.cpp -----------------------------------------------------===//

#include "api/Socket.h"

#include "support/Format.h"

#include <cerrno>
#include <cstring>

#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

using namespace offchip;

int offchip::connectTcp(const std::string &Host, unsigned Port,
                        std::string *Err) {
  struct addrinfo Hints = {};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_NUMERICSERV;
  std::string Service = formatString("%u", Port);
  struct addrinfo *Res = nullptr;
  if (int RC = getaddrinfo(Host.c_str(), Service.c_str(), &Hints, &Res)) {
    if (Err)
      *Err = formatString("cannot resolve %s:%u: %s", Host.c_str(), Port,
                          gai_strerror(RC));
    return -1;
  }
  int LastErrno = 0;
  for (struct addrinfo *AI = Res; AI; AI = AI->ai_next) {
    int Fd = socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0) {
      LastErrno = errno;
      continue;
    }
    if (connect(Fd, AI->ai_addr, AI->ai_addrlen) == 0) {
      freeaddrinfo(Res);
      return Fd;
    }
    LastErrno = errno;
    close(Fd);
  }
  freeaddrinfo(Res);
  if (Err)
    *Err = formatString("cannot connect to %s:%u: %s", Host.c_str(), Port,
                        std::strerror(LastErrno ? LastErrno : ECONNREFUSED));
  return -1;
}

bool offchip::sendAll(int Fd, const std::string &Data) {
  std::size_t Sent = 0;
  while (Sent < Data.size()) {
    ssize_t N = send(Fd, Data.data() + Sent, Data.size() - Sent,
#ifdef MSG_NOSIGNAL
                     MSG_NOSIGNAL
#else
                     0
#endif
    );
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<std::size_t>(N);
  }
  return true;
}

bool LineReader::readLine(std::string *Line) {
  for (;;) {
    std::size_t NL = Buf.find('\n', Scanned);
    if ((NL == std::string::npos ? Buf.size() : NL) - Pos > MaxLineBytes) {
      // Drop the partial line and read nothing more.
      TooLong = Eof = true;
      Buf.clear();
      Pos = Scanned = 0;
      return false;
    }
    if (NL != std::string::npos) {
      std::size_t Len = NL - Pos;
      if (Len > 0 && Buf[Pos + Len - 1] == '\r')
        --Len;
      Line->assign(Buf, Pos, Len);
      Pos = Scanned = NL + 1;
      // Periodically discard consumed bytes so a long-lived connection
      // doesn't accrete its whole history.
      if (Pos > 64 * 1024) {
        Buf.erase(0, Pos);
        Pos = Scanned = 0;
      }
      return true;
    }
    Scanned = Buf.size();
    if (Eof) {
      if (Pos < Buf.size()) {
        std::size_t Len = Buf.size() - Pos;
        if (Buf.back() == '\r')
          --Len;
        Line->assign(Buf, Pos, Len);
        Pos = Buf.size();
        return true;
      }
      return false;
    }
    char Chunk[4096];
    ssize_t N = recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Eof = true;
      continue;
    }
    if (N == 0) {
      Eof = true;
      continue;
    }
    Buf.append(Chunk, static_cast<std::size_t>(N));
  }
}
