//===- api/Socket.h - Small POSIX TCP helpers -------------------*- C++ -*-===//
///
/// \file
/// The few socket primitives the line protocol needs, shared by the server,
/// the storm driver and the tests: connect-by-host-and-port, write-all, and
/// a buffered newline-delimited reader. Everything reports errors as
/// strings; nothing throws.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_SOCKET_H
#define OFFCHIP_API_SOCKET_H

#include <string>

namespace offchip {

/// Connects a TCP socket to \p Host : \p Port. Returns the connected fd,
/// or -1 with \p Err set.
int connectTcp(const std::string &Host, unsigned Port, std::string *Err);

/// Writes all of \p Data to \p Fd, retrying short writes. False on error.
bool sendAll(int Fd, const std::string &Data);

/// Buffered reader yielding one '\n'-terminated line at a time (the
/// terminator and any trailing '\r' are stripped).
class LineReader {
public:
  /// The longest line delivered, in bytes before the '\n'. A peer that
  /// sends more without a newline ends the stream (tooLong()), so one line
  /// cannot grow the buffer without bound.
  static constexpr std::size_t MaxLineBytes = 1 << 20;

  explicit LineReader(int Fd) : Fd(Fd) {}

  /// Reads the next line into \p Line. Returns false on EOF, error or an
  /// overlong line; a final unterminated line is still delivered before
  /// EOF is reported.
  bool readLine(std::string *Line);

  /// True once a line longer than MaxLineBytes ended the stream.
  bool tooLong() const { return TooLong; }

private:
  int Fd;
  std::string Buf;
  std::size_t Pos = 0;
  /// End of the prefix of Buf already searched for '\n' (>= Pos), so each
  /// received chunk is scanned once however long the line grows.
  std::size_t Scanned = 0;
  bool Eof = false;
  bool TooLong = false;
};

} // namespace offchip

#endif // OFFCHIP_API_SOCKET_H
