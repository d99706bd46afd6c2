#include "isa/instruction.hpp"
#include "isa/op_class.hpp"
#include "isa/opcode.hpp"
#include "isa/registers.hpp"

#include <array>
#include <cctype>

#include "support/panic.hpp"
#include "support/string_utils.hpp"

namespace paragraph {
namespace isa {

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:   return "Integer ALU";
      case OpClass::IntMul:   return "Integer Multiply";
      case OpClass::IntDiv:   return "Integer Division";
      case OpClass::FpAddSub: return "Floating Point Add/Sub";
      case OpClass::FpMul:    return "Floating Point Multiply";
      case OpClass::FpDiv:    return "Floating Point Division";
      case OpClass::Load:     return "Load";
      case OpClass::Store:    return "Store";
      case OpClass::SysCall:  return "System Calls";
      case OpClass::Control:  return "Control";
      default:                return "Unknown";
    }
}

namespace {

constexpr std::array<OpcodeInfo, numOpcodes> opcodeTable = {{
    // name      class              pattern
    {"add",     OpClass::IntAlu,   OperandPattern::R3},      // Add
    {"sub",     OpClass::IntAlu,   OperandPattern::R3},      // Sub
    {"mul",     OpClass::IntMul,   OperandPattern::R3},      // Mul
    {"div",     OpClass::IntDiv,   OperandPattern::R3},      // Div
    {"rem",     OpClass::IntDiv,   OperandPattern::R3},      // Rem
    {"and",     OpClass::IntAlu,   OperandPattern::R3},      // And
    {"or",      OpClass::IntAlu,   OperandPattern::R3},      // Or
    {"xor",     OpClass::IntAlu,   OperandPattern::R3},      // Xor
    {"nor",     OpClass::IntAlu,   OperandPattern::R3},      // Nor
    {"sllv",    OpClass::IntAlu,   OperandPattern::R3},      // Sllv
    {"srlv",    OpClass::IntAlu,   OperandPattern::R3},      // Srlv
    {"srav",    OpClass::IntAlu,   OperandPattern::R3},      // Srav
    {"slt",     OpClass::IntAlu,   OperandPattern::R3},      // Slt
    {"sltu",    OpClass::IntAlu,   OperandPattern::R3},      // Sltu
    {"addi",    OpClass::IntAlu,   OperandPattern::R2Imm},   // Addi
    {"andi",    OpClass::IntAlu,   OperandPattern::R2Imm},   // Andi
    {"ori",     OpClass::IntAlu,   OperandPattern::R2Imm},   // Ori
    {"xori",    OpClass::IntAlu,   OperandPattern::R2Imm},   // Xori
    {"slti",    OpClass::IntAlu,   OperandPattern::R2Imm},   // Slti
    {"sll",     OpClass::IntAlu,   OperandPattern::R2Imm},   // Sll
    {"srl",     OpClass::IntAlu,   OperandPattern::R2Imm},   // Srl
    {"sra",     OpClass::IntAlu,   OperandPattern::R2Imm},   // Sra
    {"li",      OpClass::IntAlu,   OperandPattern::R1Imm},   // Li
    {"lui",     OpClass::IntAlu,   OperandPattern::R1Imm},   // Lui
    {"move",    OpClass::IntAlu,   OperandPattern::R2},      // Move
    {"lw",      OpClass::Load,     OperandPattern::MemLoad}, // Lw
    {"sw",      OpClass::Store,    OperandPattern::MemStore},// Sw
    {"l.d",     OpClass::Load,     OperandPattern::FMemLoad},// Ld
    {"s.d",     OpClass::Store,    OperandPattern::FMemStore},// Sd
    {"add.d",   OpClass::FpAddSub, OperandPattern::F3},      // FAdd
    {"sub.d",   OpClass::FpAddSub, OperandPattern::F3},      // FSub
    {"mul.d",   OpClass::FpMul,    OperandPattern::F3},      // FMul
    {"div.d",   OpClass::FpDiv,    OperandPattern::F3},      // FDiv
    {"sqrt.d",  OpClass::FpDiv,    OperandPattern::F2},      // FSqrt
    {"neg.d",   OpClass::FpAddSub, OperandPattern::F2},      // FNeg
    {"mov.d",   OpClass::FpAddSub, OperandPattern::F2},      // FMov
    {"cvt.d.w", OpClass::FpAddSub, OperandPattern::CvtToFp}, // CvtDW
    {"cvt.w.d", OpClass::FpAddSub, OperandPattern::CvtToInt},// CvtWD
    {"c.lt.d",  OpClass::FpAddSub, OperandPattern::FCmp},    // FCLt
    {"c.le.d",  OpClass::FpAddSub, OperandPattern::FCmp},    // FCLe
    {"c.eq.d",  OpClass::FpAddSub, OperandPattern::FCmp},    // FCEq
    {"beq",     OpClass::Control,  OperandPattern::Branch2}, // Beq
    {"bne",     OpClass::Control,  OperandPattern::Branch2}, // Bne
    {"blez",    OpClass::Control,  OperandPattern::Branch1}, // Blez
    {"bgtz",    OpClass::Control,  OperandPattern::Branch1}, // Bgtz
    {"bltz",    OpClass::Control,  OperandPattern::Branch1}, // Bltz
    {"bgez",    OpClass::Control,  OperandPattern::Branch1}, // Bgez
    {"j",       OpClass::Control,  OperandPattern::Jump},    // J
    {"jal",     OpClass::Control,  OperandPattern::JumpLink},// Jal
    {"jr",      OpClass::Control,  OperandPattern::JumpReg}, // Jr
    {"jalr",    OpClass::Control,  OperandPattern::JumpLinkReg}, // Jalr
    {"syscall", OpClass::SysCall,  OperandPattern::SysCallOp},   // SysCall
    {"nop",     OpClass::IntAlu,   OperandPattern::None},    // Nop
}};

const char *const intRegNames[numIntRegs] = {
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
};

} // namespace

const OpcodeInfo &
opcodeInfo(Opcode op)
{
    PARA_ASSERT(static_cast<size_t>(op) < numOpcodes);
    return opcodeTable[static_cast<size_t>(op)];
}

bool
parseOpcodeName(std::string_view name, Opcode &out)
{
    for (size_t i = 0; i < numOpcodes; ++i) {
        if (name == opcodeTable[i].name) {
            out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

std::string
intRegName(uint8_t idx)
{
    PARA_ASSERT(idx < numIntRegs);
    return intRegNames[idx];
}

std::string
fpRegName(uint8_t idx)
{
    PARA_ASSERT(idx < numFpRegs);
    std::string name = "f";
    name += std::to_string(idx);
    return name;
}

bool
parseRegName(std::string_view name, uint8_t &idx, bool &is_fp)
{
    if (!name.empty() && name.front() == '$')
        name.remove_prefix(1);
    if (name.empty())
        return false;

    // ABI integer names.
    for (uint8_t i = 0; i < numIntRegs; ++i) {
        if (name == intRegNames[i]) {
            idx = i;
            is_fp = false;
            return true;
        }
    }

    // "rN" and "fN" raw names.
    if ((name.front() == 'r' || name.front() == 'f') && name.size() >= 2) {
        int64_t n = 0;
        if (parseInt(name.substr(1), n) && n >= 0 && n < numIntRegs) {
            idx = static_cast<uint8_t>(n);
            is_fp = name.front() == 'f';
            return true;
        }
    }
    return false;
}

std::string
disassemble(const Instruction &inst)
{
    const OpcodeInfo &info = opcodeInfo(inst.op);
    std::string name(info.name);
    auto ir = [](uint8_t r) { return intRegName(r); };
    auto fr = [](uint8_t r) { return fpRegName(r); };
    switch (info.pattern) {
      case OperandPattern::None:
        return name;
      case OperandPattern::R3:
        return name + " " + ir(inst.rd) + ", " + ir(inst.rs) + ", " +
               ir(inst.rt);
      case OperandPattern::R2Imm:
        return name + " " + ir(inst.rd) + ", " + ir(inst.rs) + ", " +
               std::to_string(inst.imm);
      case OperandPattern::R1Imm:
        return name + " " + ir(inst.rd) + ", " + std::to_string(inst.imm);
      case OperandPattern::R2:
        return name + " " + ir(inst.rd) + ", " + ir(inst.rs);
      case OperandPattern::MemLoad:
        return name + " " + ir(inst.rd) + ", " + std::to_string(inst.imm) +
               "(" + ir(inst.rs) + ")";
      case OperandPattern::MemStore:
        return name + " " + ir(inst.rt) + ", " + std::to_string(inst.imm) +
               "(" + ir(inst.rs) + ")";
      case OperandPattern::FMemLoad:
        return name + " " + fr(inst.rd) + ", " + std::to_string(inst.imm) +
               "(" + ir(inst.rs) + ")";
      case OperandPattern::FMemStore:
        return name + " " + fr(inst.rt) + ", " + std::to_string(inst.imm) +
               "(" + ir(inst.rs) + ")";
      case OperandPattern::F3:
        return name + " " + fr(inst.rd) + ", " + fr(inst.rs) + ", " +
               fr(inst.rt);
      case OperandPattern::F2:
        return name + " " + fr(inst.rd) + ", " + fr(inst.rs);
      case OperandPattern::FCmp:
        return name + " " + ir(inst.rd) + ", " + fr(inst.rs) + ", " +
               fr(inst.rt);
      case OperandPattern::CvtToFp:
        return name + " " + fr(inst.rd) + ", " + ir(inst.rs);
      case OperandPattern::CvtToInt:
        return name + " " + ir(inst.rd) + ", " + fr(inst.rs);
      case OperandPattern::Branch2:
        return name + " " + ir(inst.rs) + ", " + ir(inst.rt) + ", @" +
               std::to_string(inst.imm);
      case OperandPattern::Branch1:
        return name + " " + ir(inst.rs) + ", @" + std::to_string(inst.imm);
      case OperandPattern::Jump:
      case OperandPattern::JumpLink:
        return name + " @" + std::to_string(inst.imm);
      case OperandPattern::JumpReg:
        return name + " " + ir(inst.rs);
      case OperandPattern::JumpLinkReg:
        return name + " " + ir(inst.rd) + ", " + ir(inst.rs);
      case OperandPattern::SysCallOp:
        return name;
      default:
        return name;
    }
}

} // namespace isa
} // namespace paragraph
