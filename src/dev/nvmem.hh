/**
 * @file
 * Non-volatile memory model. Intermittent software keeps control and
 * channel state in FRAM so it survives power failures; this module
 * provides typed non-volatile cells with read/write accounting (FRAM
 * endurance is effectively unlimited, but EEPROM-backed components
 * such as the V_top digital potentiometer of §5.2 are not, so the
 * accounting also backs the mechanism-comparison ablation).
 *
 * Crash-consistency model: the memory device commits one word
 * (NvMemory::wordBytes) atomically; a value wider than one word is
 * written word-by-word, so a power failure striking inside the write
 * window leaves a *torn* value — a prefix of new words followed by
 * old words. Plain NvCell writes are logically atomic (the software
 * is assumed to publish them behind its own protocol, or they fit one
 * word); NvJournaledCell implements that protocol explicitly — a
 * two-slot journal with sequence numbers and a trailing CRC — and
 * exposes tearSet() so the fault-injection harness can model a
 * failure between the words of a commit and the auditor can verify
 * detection and recovery.
 */

#ifndef CAPY_DEV_NVMEM_HH
#define CAPY_DEV_NVMEM_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "sim/logging.hh"

namespace capy::dev
{

/** CRC-32 (IEEE, reflected) over @p len bytes; the journal slots'
 *  integrity check. */
std::uint32_t nvCrc32(const void *data, std::size_t len);

/** Aggregate access accounting for one non-volatile memory device. */
class NvMemory
{
  public:
    /**
     * @param device_name label for diagnostics.
     * @param write_endurance rated writes per cell; 0 = unlimited
     *        (FRAM-class).
     */
    explicit NvMemory(std::string device_name = "fram",
                      std::uint64_t write_endurance = 0)
        : deviceName(std::move(device_name)),
          endurance(write_endurance)
    {}

    void noteRead() { ++numReads; }

    /** One write to a cell that has now been written @p cell_writes
     *  times. */
    void
    noteWrite(std::uint64_t cell_writes)
    {
        ++numWrites;
        // Out of line past the check, so this inlines into every NV
        // cell write (one per Chain transition).
        if (endurance != 0 && cell_writes > endurance && !wornFlag)
            noteWornOut(cell_writes);
    }

    std::uint64_t reads() const { return numReads; }
    std::uint64_t writes() const { return numWrites; }
    std::uint64_t enduranceLimit() const { return endurance; }
    bool wornOut() const { return wornFlag; }
    const std::string &name() const { return deviceName; }

    /// @name Crash-consistency model
    /// @{

    /** Bytes the device commits atomically (FRAM word size). */
    std::size_t wordBytes() const { return atomicWordBytes; }

    /** Torn (partially completed) commits modelled on this device. */
    std::uint64_t tornCommits() const { return numTornCommits; }
    /** Reads that detected a torn/invalid slot and fell back to the
     *  last consistent copy. */
    std::uint64_t tornRecoveries() const { return numTornRecoveries; }

    void noteTornCommit() { ++numTornCommits; }
    void noteTornRecovery() { ++numTornRecoveries; }

    /**
     * Deliberately break the journal recovery path (fault-harness
     * fixture): journaled reads return the newest slot even when its
     * integrity check fails, as a buggy runtime that skips CRC
     * verification would. Exists to prove the crash auditor catches a
     * broken recovery path; never set outside tests/crash sweeps.
     */
    void disableRecoveryForTest(bool broken) { recoveryBroken = broken; }
    bool recoveryDisabledForTest() const { return recoveryBroken; }

    /// @}

  private:
    /** Flag the device worn out and warn once. */
    void noteWornOut(std::uint64_t cell_writes);

    std::string deviceName;
    std::uint64_t endurance;
    std::uint64_t numReads = 0;
    std::uint64_t numWrites = 0;
    bool wornFlag = false;
    /** MSP430-class FRAM commits 32-bit words atomically here; wider
     *  values are multi-word and tearable. */
    std::size_t atomicWordBytes = 4;
    std::uint64_t numTornCommits = 0;
    std::uint64_t numTornRecoveries = 0;
    bool recoveryBroken = false;
};

/**
 * A typed non-volatile cell. Contents survive power failures by
 * construction (the simulation never clears them); volatile state, by
 * contrast, must be modelled as ordinary variables that the software
 * layer re-initializes on boot.
 */
template <typename T>
class NvCell
{
  public:
    /** @param mem accounting device; may be nullptr (no accounting). */
    explicit NvCell(NvMemory *mem = nullptr, T initial = T{})
        : memory(mem), value(std::move(initial))
    {}

    const T &
    get() const
    {
        if (memory)
            memory->noteRead();
        return value;
    }

    /** Read without touching the access accounting (audit probes must
     *  not perturb the counters they audit alongside). */
    const T &peek() const { return value; }

    void
    set(const T &v)
    {
        ++cellWrites;
        if (memory)
            memory->noteWrite(cellWrites);
        value = v;
    }

    std::uint64_t writeCount() const { return cellWrites; }

  private:
    NvMemory *memory;
    T value;
    std::uint64_t cellWrites = 0;
};

/** Audit view of one journaled cell (see NvJournaledCell). */
struct NvJournalState
{
    bool valid[2] = {false, false};  ///< slot CRC verifies
    std::uint32_t seq[2] = {0, 0};   ///< slot sequence numbers
    int active = -1;        ///< recovered slot index; -1 = reset value
    bool torn = false;      ///< a slot currently holds a torn image
    std::uint64_t commits = 0;      ///< completed set() protocols
    std::uint64_t tornWrites = 0;   ///< tearSet() interruptions
};

/**
 * Crash-consistent non-volatile cell for trivially copyable values
 * wider than one memory word.
 *
 * Implements the classic two-slot journal: a commit writes the whole
 * record — payload, then sequence number, then CRC — into the slot
 * *not* currently active, and the reader picks the highest-sequence
 * slot whose CRC verifies. Because the CRC words are written last, a
 * power failure anywhere inside the multi-word write window leaves a
 * slot that fails verification, and the reader falls back to the
 * previous committed value; the cell never returns a torn value and a
 * commit is atomic exactly at its final word.
 *
 * tearSet() models the interrupted commit: it writes only the first
 * @p words memory words of the record the protocol would have
 * written. The fault harness drives it from the power-failure hook
 * with the interrupted write's elapsed fraction.
 */
template <typename T>
class NvJournaledCell
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "journaled cells hold raw memory images");

  public:
    explicit NvJournaledCell(NvMemory *mem = nullptr, T initial = T{})
        : memory(mem), resetValue(initial), slotA(mem), slotB(mem)
    {}

    /** Words in one slot record (the tearSet() range is [0, this]). */
    std::size_t
    slotWords() const
    {
        return (sizeof(Record) + wordBytes() - 1) / wordBytes();
    }

    /** Recovered value: newest consistent slot, or the reset value
     *  when nothing ever committed. */
    T
    get() const
    {
        if (memory) {
            memory->noteRead();
            // A read that skips past a newer-but-torn slot is the
            // recovery the crash audits want accounted.
            if (!memory->recoveryDisabledForTest() && activeIdx >= 0) {
                int other = 1 - activeIdx;
                if (slot(other).writeCount() > 0 && !slotValid[other] &&
                    slot(other).peek().seq >= slot(activeIdx).peek().seq)
                    memory->noteTornRecovery();
            }
        }
        return recover();
    }

    /** get() without touching any accounting (audit probes). */
    T peek() const { return recover(); }

    /**
     * Protocol-correct recovery, ignoring the broken-recovery test
     * fixture: the value a correct reader recovers. Audit probes
     * compare this against peek() — any divergence means the software
     * read path returned a value the journal protocol would not. It
     * re-verifies both slots from their bytes rather than trusting the
     * validity the read path cached at write time.
     */
    T
    auditRecover() const
    {
        bool valid[2] = {verifies(slot(0).peek()),
                         verifies(slot(1).peek())};
        int active = newestValid(valid);
        return active < 0 ? resetValue : slot(active).peek().value;
    }

    /** Atomically commit @p v through the journal protocol. */
    void
    set(const T &v)
    {
        int target = targetSlot();
        slot(target).set(compose(v));
        // compose() just sealed the record, so the slot verifies.
        noteSlotWritten(target, true);
        ++numCommits;
    }

    /**
     * Model a commit of @p v interrupted after @p words memory words
     * (0 <= words <= slotWords()). words == slotWords() degenerates
     * to a complete commit; anything less leaves a torn slot image
     * that get() must detect and recover from.
     */
    void
    tearSet(const T &v, std::size_t words)
    {
        std::size_t total = slotWords();
        capy_assert(words <= total, "torn write of %zu/%zu words",
                    words, total);
        if (words == total) {
            set(v);
            return;
        }
        Record full = compose(v);
        int target = targetSlot();
        Record image = slot(target).peek();
        std::memcpy(&image, &full, words * wordBytes());
        slot(target).set(image);
        noteSlotWritten(target, verifies(image));
        ++numTornWrites;
        if (memory)
            memory->noteTornCommit();
    }

    /** Audit snapshot, re-verified from the slot bytes (never from
     *  the read path's cache); does not perturb accounting. */
    NvJournalState
    auditState() const
    {
        NvJournalState st;
        for (int i = 0; i < 2; ++i) {
            const Record &rec = slot(i).peek();
            st.valid[i] = verifies(rec);
            st.seq[i] = rec.seq;
        }
        st.active = newestValid(st.valid);
        st.torn = (numCommits + numTornWrites > 0) &&
                  (!st.valid[0] || !st.valid[1]) &&
                  slot(st.valid[0] ? 1 : 0).writeCount() > 0;
        st.commits = numCommits;
        st.tornWrites = numTornWrites;
        return st;
    }

    std::uint64_t commits() const { return numCommits; }
    std::uint64_t tornWrites() const { return numTornWrites; }

  private:
    struct Record
    {
        T value{};
        std::uint32_t seq = 0;
        std::uint32_t crc = 0;
    };

    std::size_t
    wordBytes() const
    {
        return memory ? memory->wordBytes() : 4;
    }

    static std::uint32_t
    crcOf(const Record &rec)
    {
        // CRC covers payload and sequence number; 0 is reserved for
        // "never written" so a fresh slot can't accidentally verify.
        std::uint32_t c =
            nvCrc32(&rec, offsetof(Record, crc));
        return c == 0 ? 1 : c;
    }

    bool
    verifies(const Record &rec) const
    {
        return rec.crc != 0 && rec.crc == crcOf(rec);
    }

    Record
    compose(const T &v) const
    {
        Record rec;
        rec.value = v;
        rec.seq = nextSeq();
        rec.crc = crcOf(rec);
        return rec;
    }

    std::uint32_t
    nextSeq() const
    {
        // The active slot carries the highest valid sequence number.
        return activeIdx < 0 ? 1 : slot(activeIdx).peek().seq + 1;
    }

    /** Slot a recovering reader selects among the slots flagged in
     *  @p valid: the highest sequence number, ties to slot 0; -1 when
     *  neither is valid. */
    int
    newestValid(const bool valid[2]) const
    {
        int best = -1;
        for (int i = 0; i < 2; ++i)
            if (valid[i] &&
                (best < 0 || slot(i).peek().seq > slot(best).peek().seq))
                best = i;
        return best;
    }

    /** Record the verification of slot @p i after its bytes changed;
     *  the only place the read path's validity cache is updated. */
    void
    noteSlotWritten(int i, bool valid)
    {
        slotValid[i] = valid;
        activeIdx = newestValid(slotValid);
    }

    T
    recover() const
    {
        if (memory && memory->recoveryDisabledForTest()) {
            // Broken-recovery fixture: trust whichever slot carries
            // the newest sequence number, CRC unchecked — a torn
            // commit whose CRC never landed gets believed.
            if (slot(0).writeCount() + slot(1).writeCount() == 0)
                return resetValue;
            const Record &a = slot(0).peek();
            const Record &b = slot(1).peek();
            return (a.seq >= b.seq ? a : b).value;
        }
        return activeIdx < 0 ? resetValue
                             : slot(activeIdx).peek().value;
    }

    /** The slot the next commit overwrites: never the active one. */
    int
    targetSlot() const
    {
        return activeIdx < 0 ? 0 : 1 - activeIdx;
    }

    NvCell<Record> &
    slot(int i)
    {
        return i == 0 ? slotA : slotB;
    }

    const NvCell<Record> &
    slot(int i) const
    {
        return i == 0 ? slotA : slotB;
    }

    NvMemory *memory;
    T resetValue;
    NvCell<Record> slotA;
    NvCell<Record> slotB;
    /** Whether each slot's CRC verified when its bytes last changed,
     *  and the slot a reader recovers from them. Only set() and
     *  tearSet() change slot bytes, so reads trust these instead of
     *  re-running the CRC; the audit views recompute from the bytes. */
    bool slotValid[2] = {false, false};
    int activeIdx = -1;
    std::uint64_t numCommits = 0;
    std::uint64_t numTornWrites = 0;
};

} // namespace capy::dev

#endif // CAPY_DEV_NVMEM_HH
