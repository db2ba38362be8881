# Word-position lookup trainer for the external-trainer adapter.
# Usage: awk -F '\t' -f position_lookup.awk TRAIN.tsv TEST_SRC.txt > HYP.txt
# Learns from TRAIN.tsv that the i-th source token of a pair translates to
# its i-th target token, then translates TEST_SRC.txt token by token;
# tokens never seen in training pass through unchanged.
FNR == NR {
    n = split($1, src, " ")
    m = split($2, tgt, " ")
    for (i = 1; i <= n && i <= m; i++)
        if (!(src[i] in table))
            table[src[i]] = tgt[i]
    next
}
{
    n = split($0, words, " ")
    out = ""
    for (i = 1; i <= n; i++) {
        w = (words[i] in table) ? table[words[i]] : words[i]
        out = (i == 1) ? w : out " " w
    }
    print out
}
