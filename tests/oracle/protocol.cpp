#include "oracle/protocol.hpp"

#include <sstream>

namespace haste::oracle {

std::size_t Message::wire_size() const {
  // sender(4) + slot(4) + color(2) + command(1) + marginal(8) +
  // orientation(8) + count(2) + per-task (id 4 + energy 8).
  return 29 + policy.tasks.size() * 12;
}

std::string Message::describe() const {
  std::ostringstream out;
  const char* cmd = command == Command::kValue   ? "VALUE"
                    : command == Command::kUpdate ? "UPD"
                                                  : "HELLO";
  out << "msg(id=" << sender << ", k=" << slot << ", c=" << color << ", " << cmd
      << ", dF=" << marginal << ", |tasks|=" << policy.tasks.size() << ")";
  return out.str();
}

}  // namespace haste::oracle
